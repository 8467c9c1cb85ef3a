// Package server exposes CrowdPlanner over HTTP (the paper's server layer;
// the mobile client is represented by any HTTP client — see the client
// package for the typed Go SDK).
//
// The API is versioned under /v1:
//
//	POST /v1/recommend         — process a route request through the full pipeline
//	POST /v1/recommend/batch   — fan N requests through the concurrent core
//	POST /v1/trajectories      — ingest observed trips into the live mining corpus
//	GET  /v1/health            — inventory, cache/store counters, per-endpoint metrics
//	GET  /v1/truths            — the verified-truth database (paginated)
//	GET  /v1/landmarks         — landmarks by significance (paginated)
//	GET  /v1/workers/top       — top-k eligible workers for a landmark list
//	GET  /v1/sources           — per-provider precision scoreboard
//	POST /v1/admin/snapshot    — persist full state through the storage backend
//
// plus the asynchronous task lifecycle (see async.go). Every error, including
// one for an unknown path or method, uses a uniform envelope
// {"error":{"code","message","request_id"}} with typed codes (see
// errors.go); every request carries an X-Request-ID, is access-logged, and
// is measured into the /v1/health endpoint metrics.
package server

import (
	"encoding/json"
	"fmt"
	"log"
	"net/http"
	"strconv"
	"strings"

	"crowdplanner/internal/core"
	"crowdplanner/internal/landmark"
	"crowdplanner/internal/roadnet"
	"crowdplanner/internal/routing"
	"crowdplanner/internal/store"
	"crowdplanner/internal/truth"
)

// Server wraps a core.System with an HTTP API.
type Server struct {
	sys      *core.System
	mux      *http.ServeMux
	metrics  *metricsRegistry
	logger   *log.Logger
	overload *overloadGuard // nil unless WithOverload was given
}

// Option configures a Server.
type Option func(*Server)

// WithLogger enables access and panic logging (off by default so embedded
// test servers stay quiet).
func WithLogger(l *log.Logger) Option { return func(s *Server) { s.logger = l } }

// New builds the server and its routes.
func New(sys *core.System, opts ...Option) *Server {
	s := &Server{sys: sys, mux: http.NewServeMux(), metrics: newMetricsRegistry()}
	for _, o := range opts {
		o(s)
	}
	s.handle("POST /v1/recommend", s.handleRecommend)
	s.handle("POST /v1/recommend/batch", s.handleRecommendBatch)
	s.handle("POST /v1/trajectories", s.handleIngestTrajectories)
	s.handle("GET /v1/health", s.handleHealth)
	s.handle("GET /v1/truths", s.handleTruths)
	s.handle("GET /v1/landmarks", s.handleLandmarks)
	s.handle("GET /v1/workers/top", s.handleTopWorkers)
	s.handle("GET /v1/sources", s.handleSources)
	s.handle("POST /v1/admin/snapshot", s.handleAdminSnapshot)
	s.registerAsync()
	// Unmatched requests get the envelope, not ServeMux's plain-text
	// 404/405, so clients can parse every error. This catch-all pattern also
	// swallows the mux's method-mismatch handling, so probe the other
	// methods to tell 405 from 404.
	s.mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		var allowed []string
		for _, m := range []string{http.MethodGet, http.MethodPost} {
			if m == r.Method {
				continue
			}
			probe := r.Clone(r.Context())
			probe.Method = m
			if _, pat := s.mux.Handler(probe); pat != "" && pat != "/" {
				allowed = append(allowed, m)
			}
		}
		if len(allowed) > 0 {
			w.Header().Set("Allow", strings.Join(allowed, ", "))
			writeErr(w, r, http.StatusMethodNotAllowed, CodeMethodNotAllowed,
				"method %s not allowed for %s", r.Method, r.URL.Path)
			return
		}
		writeErr(w, r, http.StatusNotFound, CodeNotFound, "no such endpoint: %s %s", r.Method, r.URL.Path)
	})
	return s
}

// Handler returns the root handler: request-ID assignment, access logging,
// panic recovery, and (when configured) the overload admission layer around
// the versioned mux. Admission runs inside recovery so a shed response is
// logged and instrumented like any other, and after request-ID assignment
// so shed 429s still carry an X-Request-ID.
func (s *Server) Handler() http.Handler {
	return withRequestID(s.withAccessLog(s.withRecovery(s.withOverload(s.mux))))
}

// handle installs h under pattern ("METHOD /path"), instrumented for the
// per-endpoint metrics.
func (s *Server) handle(pattern string, h http.HandlerFunc) {
	s.mux.Handle(pattern, s.instrument(pattern, h))
}

// Page is the /v1 list envelope: one page of items plus the total count and
// the paging parameters that produced it.
type Page[T any] struct {
	Items  []T `json:"items"`
	Total  int `json:"total"`
	Limit  int `json:"limit"`
	Offset int `json:"offset"`
}

const (
	defaultPageLimit = 50
	maxPageLimit     = 500
)

// pageParams parses ?limit= and ?offset= with defaults and bounds.
func pageParams(r *http.Request) (limit, offset int, err error) {
	limit, offset = defaultPageLimit, 0
	if v := r.URL.Query().Get("limit"); v != "" {
		n, perr := strconv.Atoi(v)
		if perr != nil || n < 1 {
			return 0, 0, fmt.Errorf("bad limit parameter %q", v)
		}
		limit = min(n, maxPageLimit)
	}
	if v := r.URL.Query().Get("offset"); v != "" {
		n, perr := strconv.Atoi(v)
		if perr != nil || n < 0 {
			return 0, 0, fmt.Errorf("bad offset parameter %q", v)
		}
		offset = n
	}
	return limit, offset, nil
}

// paginate clips items to [offset, offset+limit) and wraps them in a Page.
func paginate[T any](items []T, limit, offset int) Page[T] {
	total := len(items)
	lo := min(offset, total)
	hi := min(lo+limit, total)
	return Page[T]{Items: items[lo:hi], Total: total, Limit: limit, Offset: offset}
}

// RecommendRequest is the POST /v1/recommend body.
type RecommendRequest struct {
	From        roadnet.NodeID `json:"from"`
	To          roadnet.NodeID `json:"to"`
	DepartMin   float64        `json:"depart_min"` // minutes since Monday 00:00
	DeadlineMin float64        `json:"deadline_min,omitempty"`
}

// RecommendResponse is the POST /v1/recommend reply.
type RecommendResponse struct {
	Route      []roadnet.NodeID `json:"route"`
	Stage      string           `json:"stage"`
	Confidence float64          `json:"confidence"`
	LengthM    float64          `json:"length_m"`
	TravelMin  float64          `json:"travel_min"`
	Candidates []CandidateInfo  `json:"candidates,omitempty"`
	Task       *TaskInfo        `json:"task,omitempty"`
}

// CandidateInfo summarizes one candidate route.
type CandidateInfo struct {
	Source  string  `json:"source"`
	Nodes   int     `json:"nodes"`
	LengthM float64 `json:"length_m"`
	Prior   float64 `json:"prior"`
}

// TaskInfo summarizes a generated crowd task.
type TaskInfo struct {
	ID                int64   `json:"id"`
	Questions         []int32 `json:"question_landmarks"`
	ExpectedQuestions float64 `json:"expected_questions"`
	QuestionsUsed     int     `json:"questions_used"`
	AnswersUsed       int     `json:"answers_used"`
	WorkersAssigned   int     `json:"workers_assigned"`
}

func (s *Server) handleRecommend(w http.ResponseWriter, r *http.Request) {
	var req RecommendRequest
	if !decodeBody(w, r, maxBodyBytes, &req) {
		return
	}
	creq, err := req.coreRequest()
	if err != nil {
		writeCoreErr(w, r, err)
		return
	}
	// r.Context() is cancelled when the client disconnects: the pipeline
	// aborts candidate fan-out and the crowd loop instead of burning CPU.
	resp, err := s.sys.Recommend(r.Context(), creq)
	if err != nil {
		writeCoreErr(w, r, err)
		return
	}
	out := s.recommendResponse(resp, req.DepartMin)
	if resp.Task != nil {
		ti := &TaskInfo{
			ID:                resp.Task.ID,
			ExpectedQuestions: resp.Task.ExpectedQuestions(),
			WorkersAssigned:   len(resp.Workers),
		}
		for _, q := range resp.Task.Questions {
			ti.Questions = append(ti.Questions, int32(q))
		}
		if resp.Run != nil {
			ti.QuestionsUsed = resp.Run.QuestionsUsed
			ti.AnswersUsed = resp.Run.AnswersUsed
		}
		out.Task = ti
	}
	writeJSON(w, http.StatusOK, out)
}

// HealthResponse is the GET /v1/health reply: liveness, inventory sizes,
// cache/store/overload/routing counters, and per-endpoint serving metrics.
type HealthResponse struct {
	Status     string                     `json:"status"`
	Nodes      int                        `json:"nodes"`
	Edges      int                        `json:"edges"`
	Landmarks  int                        `json:"landmarks"`
	Workers    int                        `json:"workers"`
	Truths     int                        `json:"truths"`
	Trips      int                        `json:"trips"` // trajectory corpus size (generated + ingested)
	RouteCache RouteCacheInfo             `json:"route_cache"`
	OpenTasks  int                        `json:"open_tasks"`
	UptimeSec  float64                    `json:"uptime_sec"`
	Store      StoreInfo                  `json:"store"`
	Overload   OverloadInfo               `json:"overload"`
	Routing    routing.Stats              `json:"routing"`
	Endpoints  map[string]EndpointMetrics `json:"endpoints"`
}

// StoreInfo reports the storage backend's counters (see internal/store),
// the append failures the serving path absorbed, and the circuit breaker's
// state over the backend.
type StoreInfo struct {
	store.Stats
	AppendErrors uint64            `json:"append_errors"`
	Breaker      core.BreakerStats `json:"breaker"`
}

// RouteCacheInfo reports the candidate route cache counters (all zero when
// the cache is disabled).
type RouteCacheInfo struct {
	Hits          uint64  `json:"hits"`
	Misses        uint64  `json:"misses"`
	HitRate       float64 `json:"hit_rate"`
	Evictions     uint64  `json:"evictions"`
	Invalidations uint64  `json:"invalidations"`
	Size          int     `json:"size"`
	Capacity      int     `json:"capacity"`
}

func (s *Server) handleHealth(w http.ResponseWriter, _ *http.Request) {
	cs := s.sys.RouteCacheStats()
	status := "ok"
	if s.sys.Degraded() {
		// The storage circuit breaker is open: reads still serve, mutating
		// endpoints answer 503 (see rejectIfDegraded).
		status = "degraded"
	}
	endpoints, uptime := s.metrics.snapshot()
	ss, appendErrs := s.sys.StoreStats()
	writeJSON(w, http.StatusOK, HealthResponse{
		Status:    status,
		Nodes:     s.sys.Graph().NumNodes(),
		Edges:     s.sys.Graph().NumEdges(),
		Landmarks: s.sys.Landmarks().Len(),
		Workers:   s.sys.Pool().Len(),
		Truths:    s.sys.TruthDB().Len(),
		Trips:     s.sys.CorpusSize(),
		RouteCache: RouteCacheInfo{
			Hits: cs.Hits, Misses: cs.Misses, HitRate: cs.HitRate(),
			Evictions: cs.Evictions, Invalidations: cs.Invalidations,
			Size: cs.Size, Capacity: cs.Capacity,
		},
		OpenTasks: s.sys.OpenTasks(),
		UptimeSec: uptime,
		Store:     StoreInfo{Stats: ss, AppendErrors: appendErrs, Breaker: s.sys.BreakerStats()},
		Overload:  s.overloadInfo(),
		Routing:   s.sys.RoutingStats(),
		Endpoints: endpoints,
	})
}

// SnapshotResponse is the POST /v1/admin/snapshot reply: the backend's
// counters after the snapshot landed.
type SnapshotResponse struct {
	OK    bool      `json:"ok"`
	Store StoreInfo `json:"store"`
}

// handleAdminSnapshot captures the system's full mutable state and persists
// it through the storage backend (compacting its WAL). With the in-memory
// backend this is a harmless no-op persistence-wise; with diskstore it is
// the operator's checkpoint lever (cpserver also snapshots on graceful
// shutdown).
func (s *Server) handleAdminSnapshot(w http.ResponseWriter, r *http.Request) {
	stats, err := s.sys.Snapshot()
	if err != nil {
		writeErr(w, r, http.StatusInternalServerError, CodeInternal, "snapshot failed: %v", err)
		return
	}
	_, appendErrs := s.sys.StoreStats()
	writeJSON(w, http.StatusOK, SnapshotResponse{OK: true, Store: StoreInfo{Stats: stats, AppendErrors: appendErrs, Breaker: s.sys.BreakerStats()}})
}

// TruthInfo is one verified truth in GET /v1/truths.
type TruthInfo struct {
	From       roadnet.NodeID `json:"from"`
	To         roadnet.NodeID `json:"to"`
	Slot       int            `json:"slot"`
	Confidence float64        `json:"confidence"`
	Crowd      bool           `json:"crowd"`
	Nodes      int            `json:"nodes"`
}

func (s *Server) handleTruths(w http.ResponseWriter, r *http.Request) {
	toInfo := func(entries []truth.Entry) []TruthInfo {
		out := make([]TruthInfo, 0, len(entries))
		for _, e := range entries {
			out = append(out, TruthInfo{
				From: e.From, To: e.To, Slot: e.Slot,
				Confidence: e.Confidence, Crowd: e.Crowd, Nodes: len(e.Route.Nodes),
			})
		}
		return out
	}
	limit, offset, err := pageParams(r)
	if err != nil {
		writeErr(w, r, http.StatusBadRequest, CodeBadRequest, "%v", err)
		return
	}
	// Copy only the requested page out of the store, not the whole database
	// per request.
	entries, total := s.sys.TruthDB().EntriesRange(offset, limit)
	writeJSON(w, http.StatusOK, Page[TruthInfo]{
		Items: toInfo(entries), Total: total, Limit: limit, Offset: offset,
	})
}

// LandmarkInfo is one landmark in GET /v1/landmarks.
type LandmarkInfo struct {
	ID           int32   `json:"id"`
	Name         string  `json:"name"`
	Kind         string  `json:"kind"`
	Significance float64 `json:"significance"`
	X            float64 `json:"x"`
	Y            float64 `json:"y"`
}

func (s *Server) handleLandmarks(w http.ResponseWriter, r *http.Request) {
	toInfo := func(ls []*landmark.Landmark) []LandmarkInfo {
		// Allocated non-nil even when empty so the JSON is [] rather than null.
		out := make([]LandmarkInfo, 0, len(ls))
		for _, l := range ls {
			out = append(out, LandmarkInfo{
				ID: int32(l.ID), Name: l.Name, Kind: l.Kind.String(),
				Significance: l.Significance, X: l.Pt.X, Y: l.Pt.Y,
			})
		}
		return out
	}
	limit, offset, err := pageParams(r)
	if err != nil {
		writeErr(w, r, http.StatusBadRequest, CodeBadRequest, "%v", err)
		return
	}
	// Page over the sorted set first so only the returned slice (≤ 500
	// entries) is converted, not all landmarks per request.
	page := paginate(s.sys.Landmarks().TopBySignificance(s.sys.Landmarks().Len()), limit, offset)
	writeJSON(w, http.StatusOK, Page[LandmarkInfo]{
		Items: toInfo(page.Items), Total: page.Total, Limit: page.Limit, Offset: page.Offset,
	})
}

// WorkerInfo is one ranked worker in GET /v1/workers/top.
type WorkerInfo struct {
	ID     int32   `json:"id"`
	Score  float64 `json:"score"`
	Reward float64 `json:"reward"`
}

// handleTopWorkers ranks workers for a landmark list. The list holds at
// most one entry per landmark and only IDs of landmarks that exist: the
// ranking runs under the pool's read lock, so an unbounded list would stall
// every reward write-back, and through them every new selection.
func (s *Server) handleTopWorkers(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	numLandmarks := s.sys.Landmarks().Len()
	var lids []landmark.ID
	for _, part := range strings.Split(q.Get("landmarks"), ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		if len(lids) == numLandmarks {
			writeErr(w, r, http.StatusBadRequest, CodeBadRequest, "more than %d landmark ids", numLandmarks)
			return
		}
		n, err := strconv.ParseInt(part, 10, 32)
		if err != nil || n < 0 || n >= int64(numLandmarks) {
			writeErr(w, r, http.StatusBadRequest, CodeBadRequest, "bad landmark id %q: want 0..%d", part, numLandmarks-1)
			return
		}
		lids = append(lids, landmark.ID(n))
	}
	if len(lids) == 0 {
		writeErr(w, r, http.StatusBadRequest, CodeBadRequest, "landmarks parameter required")
		return
	}
	k := 5
	if v := q.Get("k"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 1 {
			writeErr(w, r, http.StatusBadRequest, CodeBadRequest, "bad k parameter %q", v)
			return
		}
		k = n
	}
	// TopWorkers holds the system's pool lock and snapshots the mutable
	// fields, keeping the ranking and reward balances consistent with
	// concurrent reward write-backs.
	ranked := s.sys.TopWorkers(lids, k, s.sys.Config().Select)
	out := make([]WorkerInfo, 0, len(ranked))
	for _, rk := range ranked {
		out = append(out, WorkerInfo{ID: int32(rk.ID), Score: rk.Score, Reward: rk.Reward})
	}
	writeJSON(w, http.StatusOK, out)
}

// SourceInfo is one provider's scoreboard entry in GET /v1/sources.
type SourceInfo struct {
	Source    string  `json:"source"`
	Wins      int     `json:"wins"`
	Total     int     `json:"total"`
	Precision float64 `json:"precision"`
}

// handleSources reports the per-provider precision scoreboard (the quality
// control of route sources; paper §VI future work).
func (s *Server) handleSources(w http.ResponseWriter, _ *http.Request) {
	stats := s.sys.SourceStats()
	out := make([]SourceInfo, 0, len(stats))
	for _, st := range stats {
		out = append(out, SourceInfo{
			Source: st.Source, Wins: st.Wins, Total: st.Total, Precision: st.Precision(),
		})
	}
	writeJSON(w, http.StatusOK, out)
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}
