package server

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"testing"
)

// TestV1BodyDecoding pins the one decoder every /v1 POST body goes through:
// a body is exactly one JSON value within its endpoint's byte limit (413
// too_large past it, 400 invalid_json for anything after the value), unknown
// fields are accepted, and a recommend body's depart_min must lie in
// [0, one week) and its deadline_min must not be negative (400 bad_request).
func TestV1BodyDecoding(t *testing.T) {
	srv, w, _ := asyncServer(t)
	trip := w.Data.Trips[0]
	od := fmt.Sprintf(`"from":%d,"to":%d`, trip.Route.Source(), trip.Route.Dest())
	valid := fmt.Sprintf(`{%s,"depart_min":%v}`, od, float64(trip.Depart))
	recommend := func(fields string) string { return `{` + od + `,` + fields + `}` }
	pad := func(n int) string { return `"pad":"` + strings.Repeat("x", n) + `"` }

	// An open task for the answer endpoint; every answer below is rejected,
	// so it stays open.
	out := decode[AsyncRecommendResponse](t, postJSON(t, srv.URL+"/v1/recommend/async", json.RawMessage(valid)))
	if out.Ticket == nil {
		t.Fatalf("crowd-forced publish resolved directly (stage %v)", out.Resolved.Stage)
	}
	answerPath := fmt.Sprintf("/v1/tasks/%d/answer", out.Ticket.TaskID)
	answer := fmt.Sprintf(`{"worker":%d,"yes":true}`, out.Ticket.AssignedWorkers[0])

	cases := []struct {
		name, path, body string
		status           int
		code             string
	}{
		{"recommend", "/v1/recommend", valid, http.StatusOK, ""},
		{"recommend unknown field", "/v1/recommend", recommend(`"depart_min":600,"colour":"red"`), http.StatusOK, ""},
		{"recommend trailing whitespace", "/v1/recommend", valid + " \n\t", http.StatusOK, ""},
		{"recommend last minute of the week", "/v1/recommend", recommend(`"depart_min":10079.5`), http.StatusOK, ""},
		{"recommend trailing value", "/v1/recommend", valid + `{}`, http.StatusBadRequest, "invalid_json"},
		{"recommend trailing bytes", "/v1/recommend", valid + ` x`, http.StatusBadRequest, "invalid_json"},
		{"recommend empty body", "/v1/recommend", ``, http.StatusBadRequest, "invalid_json"},
		{"recommend too large", "/v1/recommend", recommend(`"depart_min":600,` + pad(maxBodyBytes)), http.StatusRequestEntityTooLarge, "too_large"},
		{"recommend negative deadline", "/v1/recommend", recommend(`"depart_min":600,"deadline_min":-5`), http.StatusBadRequest, "bad_request"},
		{"recommend huge depart", "/v1/recommend", recommend(`"depart_min":1e308`), http.StatusBadRequest, "bad_request"},
		{"recommend negative depart", "/v1/recommend", recommend(`"depart_min":-1`), http.StatusBadRequest, "bad_request"},
		{"recommend depart one week", "/v1/recommend", recommend(`"depart_min":10080`), http.StatusBadRequest, "bad_request"},
		{"async trailing value", "/v1/recommend/async", valid + `[]`, http.StatusBadRequest, "invalid_json"},
		{"async too large", "/v1/recommend/async", recommend(pad(maxBodyBytes)), http.StatusRequestEntityTooLarge, "too_large"},
		{"async huge depart", "/v1/recommend/async", recommend(`"depart_min":1e308`), http.StatusBadRequest, "bad_request"},
		{"async negative deadline", "/v1/recommend/async", recommend(`"depart_min":600,"deadline_min":-5`), http.StatusBadRequest, "bad_request"},
		{"answer trailing value", answerPath, answer + ` {}`, http.StatusBadRequest, "invalid_json"},
		{"answer too large", answerPath, `{` + pad(maxBodyBytes) + `}`, http.StatusRequestEntityTooLarge, "too_large"},
		{"batch trailing bytes", "/v1/recommend/batch", `{"items":[` + valid + `]}x`, http.StatusBadRequest, "invalid_json"},
		{"batch too large", "/v1/recommend/batch", `{` + pad(maxBatchBodyBytes) + `}`, http.StatusRequestEntityTooLarge, "too_large"},
		{"trajectories trailing value", "/v1/trajectories", `{"trips":[]} {}`, http.StatusBadRequest, "invalid_json"},
		{"trajectories too large", "/v1/trajectories", `{` + pad(maxIngestBodyBytes) + `,"trips":[]}`, http.StatusRequestEntityTooLarge, "too_large"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resp, err := http.Post(srv.URL+tc.path, "application/json", strings.NewReader(tc.body))
			if err != nil {
				t.Fatal(err)
			}
			if tc.code == "" {
				resp.Body.Close()
				if resp.StatusCode != tc.status {
					t.Fatalf("status = %d, want %d", resp.StatusCode, tc.status)
				}
				return
			}
			decodeEnvelope(t, resp, tc.status, tc.code)
		})
	}

	// Inside a batch an out-of-range item fails on its own; the rest run.
	resp := postJSON(t, srv.URL+"/v1/recommend/batch", json.RawMessage(
		`{"items":[`+valid+`,`+recommend(`"depart_min":1e308`)+`,`+recommend(`"depart_min":600,"deadline_min":-5`)+`]}`))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("batch status = %d, want 200", resp.StatusCode)
	}
	batch := decode[BatchRecommendResponse](t, resp)
	if batch.Succeeded != 1 || batch.Failed != 2 {
		t.Fatalf("batch succeeded %d, failed %d; want 1 and 2: %+v", batch.Succeeded, batch.Failed, batch.Results)
	}
	for _, res := range batch.Results[1:] {
		if res.Status != http.StatusBadRequest || res.Error == nil || res.Error.Code != CodeBadRequest {
			t.Errorf("item %d = %+v, want a 400 bad_request", res.Index, res)
		}
	}
}
