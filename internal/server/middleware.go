package server

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"fmt"
	"net/http"
	"sync/atomic"
	"time"
)

type ctxKey int

const requestIDKey ctxKey = iota

// RequestIDFrom returns the request ID the middleware attached to the
// context, or "" outside a server request.
func RequestIDFrom(ctx context.Context) string {
	id, _ := ctx.Value(requestIDKey).(string)
	return id
}

var requestSeq atomic.Uint64

// newRequestID returns a short unique ID: a random hex nonce, falling back
// to a process-local sequence if the entropy source fails.
func newRequestID() string {
	var b [6]byte
	if _, err := rand.Read(b[:]); err != nil {
		return fmt.Sprintf("req-%d", requestSeq.Add(1))
	}
	return hex.EncodeToString(b[:])
}

// statusRecorder captures the status code written by a handler. The zero
// status means "nothing written yet", which the recovery middleware uses to
// decide whether a 500 can still be sent.
type statusRecorder struct {
	http.ResponseWriter
	status int
}

func (sr *statusRecorder) WriteHeader(code int) {
	if sr.status == 0 {
		sr.status = code
	}
	sr.ResponseWriter.WriteHeader(code)
}

func (sr *statusRecorder) Write(b []byte) (int, error) {
	if sr.status == 0 {
		sr.status = http.StatusOK
	}
	return sr.ResponseWriter.Write(b)
}

// Flush keeps streaming responses working through the recorder.
func (sr *statusRecorder) Flush() {
	if f, ok := sr.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// withRequestID assigns every request an ID (honoring a client-supplied
// X-Request-ID), stores it in the context, and echoes it in the response.
func withRequestID(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		id := r.Header.Get("X-Request-ID")
		if id == "" || len(id) > 128 {
			id = newRequestID()
		}
		w.Header().Set("X-Request-ID", id)
		next.ServeHTTP(w, r.WithContext(context.WithValue(r.Context(), requestIDKey, id)))
	})
}

// withAccessLog logs one line per request: method, path, status, duration,
// request ID. A nil logger disables logging (the default in tests).
func (s *Server) withAccessLog(next http.Handler) http.Handler {
	if s.logger == nil {
		return next
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		rec := &statusRecorder{ResponseWriter: w}
		start := time.Now()
		next.ServeHTTP(rec, r)
		status := rec.status
		if status == 0 {
			status = http.StatusOK
		}
		s.logger.Printf("%s %s %d %s rid=%s", r.Method, r.URL.Path, status,
			time.Since(start).Round(time.Microsecond), RequestIDFrom(r.Context()))
	})
}

// withRecovery converts a handler panic into a 500 envelope instead of
// killing the connection, and logs the panic with the request ID so it can
// be found.
func (s *Server) withRecovery(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		rec := &statusRecorder{ResponseWriter: w}
		defer func() {
			v := recover()
			if v == nil {
				return
			}
			//cplint:ignore sentinel -- net/http contract: ErrAbortHandler is a panic value detected by identity, never wrapped
			if v == http.ErrAbortHandler { // deliberate connection abort
				panic(v)
			}
			if s.logger != nil {
				s.logger.Printf("panic serving %s %s rid=%s: %v", r.Method, r.URL.Path, RequestIDFrom(r.Context()), v)
			}
			if rec.status == 0 { // headers not sent yet: a clean 500 is still possible
				writeErr(rec, r, http.StatusInternalServerError, CodeInternal, "internal server error")
			}
		}()
		next.ServeHTTP(rec, r)
	})
}

// instrument wraps a handler to record per-pattern metrics, which
// GET /v1/health surfaces. A panicking handler is recorded as a 500 (that
// is what the recovery middleware will send) before the panic continues.
func (s *Server) instrument(pattern string, h http.HandlerFunc) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		rec := &statusRecorder{ResponseWriter: w}
		start := time.Now()
		defer func() {
			if v := recover(); v != nil {
				s.metrics.observe(pattern, http.StatusInternalServerError, time.Since(start))
				panic(v)
			}
			status := rec.status
			if status == 0 {
				status = http.StatusOK
			}
			s.metrics.observe(pattern, status, time.Since(start))
		}()
		h(rec, r)
	})
}
