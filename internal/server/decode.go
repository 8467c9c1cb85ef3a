package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"

	"crowdplanner/internal/core"
	"crowdplanner/internal/routing"
)

// Body limits of the /v1 POST endpoints (DESIGN §7).
const (
	// maxBodyBytes caps a one-object body (recommend, async publish, task
	// answer); a well-formed one is under 200 bytes.
	maxBodyBytes = 64 << 10
	// maxBatchBodyBytes caps a batch body; batchMaxItems full items fit in
	// a small fraction of it.
	maxBatchBodyBytes = 4 << 20
	// maxIngestBodyBytes caps a trajectory body: 8 KiB per trip, room for
	// trajMaxItems routes of about a thousand nodes each.
	maxIngestBodyBytes = trajMaxItems * 8 << 10
)

// decodeBody decodes exactly one JSON value from the request body into v,
// reading at most limit bytes. Unknown fields are accepted. On failure it
// writes the error envelope and returns false: 413 too_large when the body
// exceeds limit, 400 invalid_json for every other failure, including data
// after the value.
func decodeBody(w http.ResponseWriter, r *http.Request, limit int64, v any) bool {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, limit))
	err := dec.Decode(v)
	if err == nil {
		_, err = dec.Token()
		if errors.Is(err, io.EOF) {
			return true
		}
		if err == nil {
			err = errors.New("unexpected data after the JSON value")
		}
	}
	var tooBig *http.MaxBytesError
	if errors.As(err, &tooBig) {
		writeErr(w, r, http.StatusRequestEntityTooLarge, CodeTooLarge,
			"request body exceeds %d bytes", tooBig.Limit)
		return false
	}
	writeErr(w, r, http.StatusBadRequest, CodeInvalidJSON, "invalid JSON: %v", err)
	return false
}

// coreRequest converts a recommend body into a core request. depart_min
// must lie in [0, one week) and deadline_min must be finite and not
// negative (0 means the configured default); anything else is
// core.ErrBadRequest.
func (req RecommendRequest) coreRequest() (core.Request, error) {
	if !(req.DepartMin >= 0 && req.DepartMin < routing.MinutesPerWeek) {
		return core.Request{}, fmt.Errorf("%w: depart_min %v outside [0, %d)",
			core.ErrBadRequest, req.DepartMin, routing.MinutesPerWeek)
	}
	if !(req.DeadlineMin >= 0 && req.DeadlineMin <= math.MaxFloat64) {
		return core.Request{}, fmt.Errorf("%w: deadline_min %v is negative or not finite",
			core.ErrBadRequest, req.DeadlineMin)
	}
	return core.Request{
		From: req.From, To: req.To,
		Depart:      routing.SimTime(req.DepartMin),
		DeadlineMin: req.DeadlineMin,
	}, nil
}
