package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"crowdplanner/internal/core"
	"crowdplanner/internal/landmark"
)

// envelope mirrors the /v1 error envelope for decoding in tests.
type envelope struct {
	Error struct {
		Code      string `json:"code"`
		Message   string `json:"message"`
		RequestID string `json:"request_id"`
	} `json:"error"`
}

func decodeEnvelope(t *testing.T, resp *http.Response, wantStatus int, wantCode string) envelope {
	t.Helper()
	defer resp.Body.Close()
	if resp.StatusCode != wantStatus {
		t.Fatalf("status = %d, want %d", resp.StatusCode, wantStatus)
	}
	var env envelope
	if err := json.NewDecoder(resp.Body).Decode(&env); err != nil {
		t.Fatalf("decoding envelope: %v", err)
	}
	if env.Error.Code != wantCode {
		t.Errorf("code = %q, want %q", env.Error.Code, wantCode)
	}
	if env.Error.Message == "" {
		t.Error("empty error message")
	}
	if env.Error.RequestID == "" {
		t.Error("empty request_id in envelope")
	}
	return env
}

func TestV1ErrorEnvelopes(t *testing.T) {
	s, _ := testServer(t)

	// 400 invalid_json: unparseable body.
	resp, err := http.Post(s.URL+"/v1/recommend", "application/json", bytes.NewBufferString("{"))
	if err != nil {
		t.Fatal(err)
	}
	env := decodeEnvelope(t, resp, http.StatusBadRequest, "invalid_json")
	if rid := resp.Header.Get("X-Request-ID"); rid == "" || rid != env.Error.RequestID {
		t.Errorf("header rid %q != envelope rid %q", rid, env.Error.RequestID)
	}

	// 400 bad_request: semantic validation, classified via errors.Is on the
	// core sentinel (not string matching).
	resp = postJSON(t, s.URL+"/v1/recommend", RecommendRequest{From: 3, To: 3})
	decodeEnvelope(t, resp, http.StatusBadRequest, "bad_request")

	// 400 bad_request: malformed pagination.
	decodeEnvelope(t, mustGet(t, s.URL+"/v1/landmarks?limit=zero"), http.StatusBadRequest, "bad_request")
	decodeEnvelope(t, mustGet(t, s.URL+"/v1/truths?offset=-1"), http.StatusBadRequest, "bad_request")

	// 404 not_found: unknown task.
	decodeEnvelope(t, mustGet(t, s.URL+"/v1/tasks/99999"), http.StatusNotFound, "not_found")
}

func TestV1AsyncErrorCodes(t *testing.T) {
	srv, w, _ := asyncServer(t)
	trip := w.Data.Trips[4]
	resp := postJSON(t, srv.URL+"/v1/recommend/async", RecommendRequest{
		From: trip.Route.Source(), To: trip.Route.Dest(), DepartMin: float64(trip.Depart),
	})
	out := decode[AsyncRecommendResponse](t, resp)
	if out.Ticket == nil {
		t.Skipf("TR resolved directly (stage %v)", out.Resolved.Stage)
	}
	id := out.Ticket.TaskID

	// 403 not_assigned: an unassigned worker tries to answer.
	r := postJSON(t, fmt.Sprintf("%s/v1/tasks/%d/answer", srv.URL, id), AnswerRequest{Worker: 30000, Yes: true})
	decodeEnvelope(t, r, http.StatusForbidden, "not_assigned")

	// Expire closes the task...
	r = postJSON(t, fmt.Sprintf("%s/v1/tasks/%d/expire", srv.URL, id), nil)
	if r.StatusCode != http.StatusOK {
		t.Fatalf("expire status = %d", r.StatusCode)
	}
	r.Body.Close()

	// ...so a second expire and a late answer are 409 task_closed.
	r = postJSON(t, fmt.Sprintf("%s/v1/tasks/%d/expire", srv.URL, id), nil)
	decodeEnvelope(t, r, http.StatusConflict, "task_closed")
	r = postJSON(t, fmt.Sprintf("%s/v1/tasks/%d/answer", srv.URL, id),
		AnswerRequest{Worker: out.Ticket.AssignedWorkers[0], Yes: true})
	decodeEnvelope(t, r, http.StatusConflict, "task_closed")
}

func TestV1BatchMixedItems(t *testing.T) {
	s, w := testServer(t)

	// 50 items through the concurrent core: mostly valid ODs with a few
	// malformed ones sprinkled in; per-item errors must not void the rest.
	const n = 50
	invalid := map[int]bool{7: true, 23: true, 41: true}
	items := make([]RecommendRequest, n)
	for i := range items {
		trip := w.Data.Trips[i%len(w.Data.Trips)]
		items[i] = RecommendRequest{
			From: trip.Route.Source(), To: trip.Route.Dest(),
			DepartMin: float64(trip.Depart) + float64(i%3),
		}
		if invalid[i] {
			items[i] = RecommendRequest{From: 3, To: 3} // rejected by the core
		}
	}
	resp := postJSON(t, s.URL+"/v1/recommend/batch", BatchRecommendRequest{Items: items})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("batch status = %d", resp.StatusCode)
	}
	out := decode[BatchRecommendResponse](t, resp)
	if len(out.Results) != n {
		t.Fatalf("results = %d, want %d", len(out.Results), n)
	}
	if out.Succeeded+out.Failed != n || out.Failed < len(invalid) {
		t.Errorf("succeeded=%d failed=%d", out.Succeeded, out.Failed)
	}
	for i, res := range out.Results {
		if res.Index != i {
			t.Fatalf("result %d has index %d", i, res.Index)
		}
		if invalid[i] {
			if res.Error == nil || res.Error.Code != CodeBadRequest || res.Status != http.StatusBadRequest {
				t.Errorf("item %d: expected bad_request, got %+v", i, res)
			}
			continue
		}
		if res.Error != nil {
			t.Errorf("item %d failed: %+v", i, res.Error)
			continue
		}
		if res.Status != http.StatusOK || len(res.Result.Route) < 2 {
			t.Errorf("item %d: bad result %+v", i, res)
		}
	}
}

func TestV1BatchValidation(t *testing.T) {
	s, w := testServer(t)
	// Empty batch.
	resp := postJSON(t, s.URL+"/v1/recommend/batch", BatchRecommendRequest{})
	decodeEnvelope(t, resp, http.StatusBadRequest, "bad_request")

	// Over the item limit.
	trip := w.Data.Trips[0]
	items := make([]RecommendRequest, batchMaxItems+1)
	for i := range items {
		items[i] = RecommendRequest{From: trip.Route.Source(), To: trip.Route.Dest(), DepartMin: float64(trip.Depart)}
	}
	resp = postJSON(t, s.URL+"/v1/recommend/batch", BatchRecommendRequest{Items: items})
	decodeEnvelope(t, resp, http.StatusRequestEntityTooLarge, "too_large")
}

func TestV1Pagination(t *testing.T) {
	s, w := testServer(t)
	// Seed at least one truth.
	trip := w.Data.Trips[2]
	postJSON(t, s.URL+"/v1/recommend", RecommendRequest{
		From: trip.Route.Source(), To: trip.Route.Dest(), DepartMin: float64(trip.Depart),
	}).Body.Close()

	truths := decode[Page[TruthInfo]](t, mustGet(t, s.URL+"/v1/truths?limit=1"))
	if truths.Total < 1 || len(truths.Items) != 1 || truths.Limit != 1 || truths.Offset != 0 {
		t.Errorf("truths page = %+v", truths)
	}

	// Offset past the end: items must be [] (present, empty), not null.
	resp := mustGet(t, fmt.Sprintf("%s/v1/truths?offset=%d", s.URL, truths.Total+100))
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if !strings.Contains(string(raw), `"items":[]`) {
		t.Errorf("past-the-end page items not []: %s", raw)
	}

	lms := decode[Page[LandmarkInfo]](t, mustGet(t, s.URL+"/v1/landmarks?limit=5&offset=2"))
	if len(lms.Items) != 5 || lms.Total != w.Landmarks.Len() || lms.Offset != 2 {
		t.Errorf("landmarks page = %+v", lms)
	}
	for i := 1; i < len(lms.Items); i++ {
		if lms.Items[i].Significance > lms.Items[i-1].Significance {
			t.Error("landmarks not sorted by significance")
		}
	}
	// Pages tile without gap or overlap: offset=2 starts at the third item.
	first := decode[Page[LandmarkInfo]](t, mustGet(t, s.URL+"/v1/landmarks?limit=3"))
	if first.Items[2].ID != lms.Items[0].ID {
		t.Errorf("offset=2 page should start at the limit=3 page's third item")
	}
}

// TestV1EmptyListsAreArrays: lists over an empty store answer [] rather
// than null, both bare (sources) and paged (truths).
func TestV1EmptyListsAreArrays(t *testing.T) {
	_, w := testServer(t)
	// A fresh system: empty truth DB and untouched source stats.
	fresh := core.New(w.System.Config(), w.Graph, w.Landmarks, w.Data, w.Pool,
		&core.PopulationOracle{Data: w.Data, Sample: 30})
	srv := httptest.NewServer(New(fresh).Handler())
	defer srv.Close()

	r := mustGet(t, srv.URL+"/v1/sources")
	raw, _ := io.ReadAll(r.Body)
	r.Body.Close()
	if got := strings.TrimSpace(string(raw)); got != "[]" {
		t.Errorf("/v1/sources empty body = %q, want []", got)
	}
	r = mustGet(t, srv.URL+"/v1/truths")
	raw, _ = io.ReadAll(r.Body)
	r.Body.Close()
	if !strings.Contains(string(raw), `"items":[]`) {
		t.Errorf("/v1/truths empty body = %s, want items []", raw)
	}
}

func TestV1LandmarksEmptyIsArray(t *testing.T) {
	_, w := testServer(t)
	cfg := w.System.Config()
	cfg.UsePMF = false // no familiarity model to fit over zero landmarks
	empty := core.New(cfg, w.Graph, landmark.NewSet(nil), w.Data, w.Pool,
		&core.PopulationOracle{Data: w.Data, Sample: 30})
	srv := httptest.NewServer(New(empty).Handler())
	defer srv.Close()

	r := mustGet(t, srv.URL+"/v1/landmarks")
	raw, _ := io.ReadAll(r.Body)
	r.Body.Close()
	if !strings.Contains(string(raw), `"items":[]`) {
		t.Errorf("/v1/landmarks empty body = %s, want items []", raw)
	}
}

func TestV1HealthMetricsAndRequestID(t *testing.T) {
	_, w := testServer(t)
	srv := httptest.NewServer(New(w.System).Handler())
	defer srv.Close()

	// A client-supplied request ID is honored and echoed.
	req, _ := http.NewRequest(http.MethodGet, srv.URL+"/v1/health", nil)
	req.Header.Set("X-Request-ID", "test-rid-1")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if rid := resp.Header.Get("X-Request-ID"); rid != "test-rid-1" {
		t.Errorf("echoed rid = %q", rid)
	}

	// Run one recommendation through the serving path first, so the routing
	// section below reflects a prep-tier (ALT) search regardless of which
	// tests ran before this one.
	trip := w.Data.Trips[0]
	postJSON(t, srv.URL+"/v1/recommend", RecommendRequest{
		From: trip.Route.Source(), To: trip.Route.Dest(), DepartMin: float64(trip.Depart),
	}).Body.Close()

	h := decode[HealthResponse](t, mustGet(t, srv.URL+"/v1/health"))
	if h.Status != "ok" || h.OpenTasks != 0 || h.UptimeSec <= 0 {
		t.Errorf("health = %+v", h)
	}
	em, ok := h.Endpoints["GET /v1/health"]
	if !ok || em.Count < 1 {
		t.Errorf("no metrics for GET /v1/health: %+v", h.Endpoints)
	}
	if em.AvgMs < 0 || em.MaxMs < em.AvgMs {
		t.Errorf("latency aggregates inconsistent: %+v", em)
	}
	// The routing section mirrors the route-cache stats: building the test
	// world already ran searches (driver simulation, truth polling), so the
	// engine counters must be non-zero and consistent.
	if h.Routing.Searches == 0 || h.Routing.HeapPushes == 0 {
		t.Errorf("routing counters empty: %+v", h.Routing)
	}
	if h.Routing.AStarSearches > h.Routing.Searches {
		t.Errorf("more A* searches than searches: %+v", h.Routing)
	}
	// The preprocessing tier is on by default, so building the test world
	// ran one landmark build per cost model, and the serving path's
	// goal-directed searches went through the ALT bound.
	if h.Routing.PrepBuilds < 2 || h.Routing.PrepLandmarks < h.Routing.PrepBuilds {
		t.Errorf("prep counters empty: %+v", h.Routing)
	}
	if h.Routing.PrepTableBytes == 0 || h.Routing.PrepBuildNs == 0 {
		t.Errorf("prep cost counters empty: %+v", h.Routing)
	}
	if h.Routing.ALTSearches == 0 || h.Routing.ALTActiveLandmarks < h.Routing.ALTSearches {
		t.Errorf("ALT counters inconsistent: %+v", h.Routing)
	}
	if h.Routing.ALTSearches > h.Routing.Searches {
		t.Errorf("more ALT searches than searches: %+v", h.Routing)
	}
}

func TestV1UnmatchedRoutesUseEnvelope(t *testing.T) {
	s, _ := testServer(t)
	// Unknown path: envelope 404, not ServeMux's plain-text page.
	decodeEnvelope(t, mustGet(t, s.URL+"/v1/nope"), http.StatusNotFound, "not_found")
	// The retired pre-versioning paths are unknown paths like any other.
	decodeEnvelope(t, mustGet(t, s.URL+"/api/health"), http.StatusNotFound, "not_found")

	// Wrong method on a known path: envelope 405 with Allow.
	resp := mustGet(t, s.URL+"/v1/recommend")
	if allow := resp.Header.Get("Allow"); !strings.Contains(allow, "POST") {
		t.Errorf("Allow = %q, want POST", allow)
	}
	decodeEnvelope(t, resp, http.StatusMethodNotAllowed, "method_not_allowed")
}

// TestOutOfRangeIDsRejected: worker and landmark IDs are int32; a wider value
// must be a 400, not wrapped onto another worker or landmark (2^32+89 would
// otherwise rank landmark 89, 2^32 would list worker 0's tasks).
func TestOutOfRangeIDsRejected(t *testing.T) {
	s, _ := testServer(t)
	decodeEnvelope(t, mustGet(t, s.URL+"/v1/workers/top?landmarks=4294967385"), http.StatusBadRequest, "bad_request")
	decodeEnvelope(t, mustGet(t, s.URL+"/v1/workers/4294967296/tasks"), http.StatusBadRequest, "bad_request")
}

// TestTopWorkersLandmarkBound: GET /v1/workers/top takes at most one ID per
// landmark, and only IDs of landmarks that exist. The ranking runs under the
// pool's read lock, so an unbounded list would stall reward write-backs.
func TestTopWorkersLandmarkBound(t *testing.T) {
	s, w := testServer(t)
	n := w.Landmarks.Len()
	every := make([]string, n)
	for i := range every {
		every[i] = fmt.Sprint(i)
	}
	top := s.URL + "/v1/workers/top?k=3&landmarks="

	// Every landmark once: the longest valid list.
	resp := mustGet(t, top+strings.Join(every, ","))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("%d landmarks: status = %d, want 200", n, resp.StatusCode)
	}
	if ws := decode[[]WorkerInfo](t, resp); len(ws) != 3 {
		t.Errorf("%d landmarks: %d workers, want 3", n, len(ws))
	}
	// One ID more is too many, though the ID itself is valid.
	decodeEnvelope(t, mustGet(t, top+strings.Join(every, ",")+",0"), http.StatusBadRequest, "bad_request")
	// IDs outside [0, n), alone or after valid ones.
	for _, q := range []string{"-1", fmt.Sprint(n), "0,1," + fmt.Sprint(n+7)} {
		decodeEnvelope(t, mustGet(t, top+q), http.StatusBadRequest, "bad_request")
	}
}
