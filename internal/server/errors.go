package server

import (
	"context"
	"errors"
	"fmt"
	"net/http"

	"crowdplanner/internal/core"
)

// ErrorCode is a stable, machine-readable error identifier. Codes are part
// of the /v1 contract: clients switch on the code, never on the message.
type ErrorCode string

// The /v1 error codes and the HTTP statuses they ride on.
const (
	// CodeInvalidJSON (400): the request body failed to parse.
	CodeInvalidJSON ErrorCode = "invalid_json"
	// CodeBadRequest (400): a parameter or field is malformed or out of range.
	CodeBadRequest ErrorCode = "bad_request"
	// CodeNotFound (404): the referenced task, resource, or endpoint does
	// not exist.
	CodeNotFound ErrorCode = "not_found"
	// CodeMethodNotAllowed (405): the path exists under another HTTP method.
	CodeMethodNotAllowed ErrorCode = "method_not_allowed"
	// CodeTaskClosed (409): the task already resolved or expired.
	CodeTaskClosed ErrorCode = "task_closed"
	// CodeAlreadyAnswered (409): the worker already answered this question.
	CodeAlreadyAnswered ErrorCode = "already_answered"
	// CodeNotAssigned (403): the worker is not assigned to the task.
	CodeNotAssigned ErrorCode = "not_assigned"
	// CodeNoCandidates (422): no route provider produced a candidate.
	CodeNoCandidates ErrorCode = "no_candidates"
	// CodeCancelled (499): the client went away before the work finished.
	CodeCancelled ErrorCode = "cancelled"
	// CodeDeadlineExceeded (504): the request's deadline passed server-side.
	CodeDeadlineExceeded ErrorCode = "deadline_exceeded"
	// CodeTooLarge (413): the batch exceeds its item limit.
	CodeTooLarge ErrorCode = "too_large"
	// CodeOverloaded (429): the bounded admission queue is full; the load
	// was shed. Retry after the Retry-After hint.
	CodeOverloaded ErrorCode = "overloaded"
	// CodeRateLimited (429): the per-client token bucket is empty. Retry
	// after the Retry-After hint.
	CodeRateLimited ErrorCode = "rate_limited"
	// CodeDegraded (503): the storage circuit breaker is open; mutating
	// endpoints are read-only until the backend heals.
	CodeDegraded ErrorCode = "degraded"
	// CodeUnprocessable (422): the pipeline failed for a request-specific
	// reason not covered by a more precise code.
	CodeUnprocessable ErrorCode = "unprocessable"
	// CodeInternal (500): a handler panicked; the request ID locates the log.
	CodeInternal ErrorCode = "internal"
)

// statusClientClosedRequest is the de-facto status (nginx's 499) for a
// request abandoned by its client; no standard code exists.
const statusClientClosedRequest = 499

// ErrorBody is the `error` object of the /v1 envelope:
//
//	{"error": {"code": "bad_request", "message": "...", "request_id": "..."}}
type ErrorBody struct {
	Code      ErrorCode `json:"code"`
	Message   string    `json:"message"`
	RequestID string    `json:"request_id,omitempty"`
}

type errorEnvelope struct {
	Error ErrorBody `json:"error"`
}

// classify maps an error from the serving core onto its HTTP status and /v1
// error code using the core's sentinel errors — never string matching.
func classify(err error) (int, ErrorCode) {
	switch {
	case errors.Is(err, core.ErrBadRequest):
		return http.StatusBadRequest, CodeBadRequest
	case errors.Is(err, core.ErrNoCandidates):
		return http.StatusUnprocessableEntity, CodeNoCandidates
	case errors.Is(err, core.ErrUnknownTask):
		return http.StatusNotFound, CodeNotFound
	case errors.Is(err, core.ErrTaskClosed):
		return http.StatusConflict, CodeTaskClosed
	case errors.Is(err, core.ErrAlreadyAnswer):
		return http.StatusConflict, CodeAlreadyAnswered
	case errors.Is(err, core.ErrNotAssigned):
		return http.StatusForbidden, CodeNotAssigned
	case errors.Is(err, context.Canceled):
		return statusClientClosedRequest, CodeCancelled
	case errors.Is(err, context.DeadlineExceeded):
		return http.StatusGatewayTimeout, CodeDeadlineExceeded
	default:
		return http.StatusUnprocessableEntity, CodeUnprocessable
	}
}

// writeErr writes an error as the /v1 envelope.
func writeErr(w http.ResponseWriter, r *http.Request, status int, code ErrorCode, format string, args ...any) {
	writeJSON(w, status, errorEnvelope{Error: ErrorBody{
		Code: code, Message: fmt.Sprintf(format, args...), RequestID: RequestIDFrom(r.Context()),
	}})
}

// writeCoreErr classifies a core error and writes it.
func writeCoreErr(w http.ResponseWriter, r *http.Request, err error) {
	status, code := classify(err)
	writeErr(w, r, status, code, "%v", err)
}
