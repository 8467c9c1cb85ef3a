package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"slices"
	"sync"
	"testing"

	"crowdplanner/internal/core"
)

var (
	srvOnce sync.Once
	srv     *httptest.Server
	world   *core.Scenario
)

func testServer(t *testing.T) (*httptest.Server, *core.Scenario) {
	t.Helper()
	srvOnce.Do(func() {
		world = core.BuildScenario(core.SmallScenarioConfig())
		srv = httptest.NewServer(New(world.System).Handler())
	})
	return srv, world
}

func postJSON(t *testing.T, url string, body any) *http.Response {
	t.Helper()
	b, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

func decode[T any](t *testing.T, resp *http.Response) T {
	t.Helper()
	defer resp.Body.Close()
	var v T
	if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
		t.Fatal(err)
	}
	return v
}

func TestHealth(t *testing.T) {
	s, w := testServer(t)
	resp, err := http.Get(s.URL + "/v1/health")
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	var h HealthResponse
	if err := json.Unmarshal(raw, &h); err != nil {
		t.Fatal(err)
	}
	if h.Status != "ok" || h.Nodes != w.Graph.NumNodes() || h.Workers != w.Pool.Len() {
		t.Errorf("health = %+v", h)
	}
	// Dashboards read the body as written: the top-level keys keep their
	// order.
	want := []string{"status", "nodes", "edges", "landmarks", "workers", "truths", "trips",
		"route_cache", "open_tasks", "uptime_sec", "store", "overload", "routing", "endpoints"}
	var keys []string
	dec := json.NewDecoder(bytes.NewReader(raw))
	if _, err := dec.Token(); err != nil { // opening brace
		t.Fatal(err)
	}
	for dec.More() {
		k, err := dec.Token()
		if err != nil {
			t.Fatal(err)
		}
		keys = append(keys, k.(string))
		var skip json.RawMessage
		if err := dec.Decode(&skip); err != nil {
			t.Fatal(err)
		}
	}
	if !slices.Equal(keys, want) {
		t.Errorf("health keys = %v, want %v", keys, want)
	}
}

func TestRecommendEndpoint(t *testing.T) {
	s, w := testServer(t)
	trip := w.Data.Trips[0]
	req := RecommendRequest{
		From:      trip.Route.Source(),
		To:        trip.Route.Dest(),
		DepartMin: float64(trip.Depart),
	}
	resp := postJSON(t, s.URL+"/v1/recommend", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	out := decode[RecommendResponse](t, resp)
	if len(out.Route) < 2 {
		t.Fatalf("route = %v", out.Route)
	}
	if out.Route[0] != req.From || out.Route[len(out.Route)-1] != req.To {
		t.Error("route endpoints wrong")
	}
	if out.Stage == "" || out.LengthM <= 0 || out.TravelMin <= 0 {
		t.Errorf("summary fields: %+v", out)
	}
	// Truths grew; health reflects it.
	h := decode[HealthResponse](t, mustGet(t, s.URL+"/v1/health"))
	if h.Truths < 1 {
		t.Error("truth DB should have entries after a request")
	}
}

func mustGet(t *testing.T, url string) *http.Response {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

func TestRecommendBadInputs(t *testing.T) {
	s, _ := testServer(t)
	// Broken JSON.
	resp, err := http.Post(s.URL+"/v1/recommend", "application/json", bytes.NewBufferString("{"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("broken JSON status = %d", resp.StatusCode)
	}
	// Same from/to.
	resp = postJSON(t, s.URL+"/v1/recommend", RecommendRequest{From: 3, To: 3})
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("same-node status = %d", resp.StatusCode)
	}
	// GET on a POST route.
	resp = mustGet(t, s.URL+"/v1/recommend")
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET status = %d", resp.StatusCode)
	}
}

func TestLandmarksEndpoint(t *testing.T) {
	s, _ := testServer(t)
	resp := mustGet(t, s.URL+"/v1/landmarks?limit=5")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	ls := decode[Page[LandmarkInfo]](t, resp).Items
	if len(ls) != 5 {
		t.Fatalf("landmarks = %d", len(ls))
	}
	for i := 1; i < len(ls); i++ {
		if ls[i].Significance > ls[i-1].Significance {
			t.Error("landmarks not sorted by significance")
		}
	}
	resp = mustGet(t, s.URL+"/v1/landmarks?limit=zero")
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("bad limit status = %d", resp.StatusCode)
	}
}

func TestTopWorkersEndpoint(t *testing.T) {
	s, w := testServer(t)
	// Use the three most significant landmarks as the ask.
	top := w.Landmarks.TopBySignificance(3)
	url := fmt.Sprintf("%s/v1/workers/top?landmarks=%d,%d,%d&k=4",
		s.URL, top[0].ID, top[1].ID, top[2].ID)
	resp := mustGet(t, url)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	ws := decode[[]WorkerInfo](t, resp)
	if len(ws) == 0 || len(ws) > 4 {
		t.Errorf("workers = %d", len(ws))
	}
	for i := 1; i < len(ws); i++ {
		if ws[i].Score > ws[i-1].Score {
			t.Error("workers not sorted by score")
		}
	}
	// Missing landmarks param.
	resp = mustGet(t, s.URL+"/v1/workers/top")
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("missing landmarks status = %d", resp.StatusCode)
	}
	// Garbage landmark ID.
	resp = mustGet(t, s.URL+"/v1/workers/top?landmarks=a,b")
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("bad landmark status = %d", resp.StatusCode)
	}
	// Garbage k.
	resp = mustGet(t, fmt.Sprintf("%s/v1/workers/top?landmarks=%d&k=-1", s.URL, top[0].ID))
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("bad k status = %d", resp.StatusCode)
	}
}

func TestTruthsEndpoint(t *testing.T) {
	s, w := testServer(t)
	// Ensure at least one truth exists.
	trip := w.Data.Trips[1]
	postJSON(t, s.URL+"/v1/recommend", RecommendRequest{
		From: trip.Route.Source(), To: trip.Route.Dest(), DepartMin: float64(trip.Depart),
	}).Body.Close()
	resp := mustGet(t, s.URL+"/v1/truths")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	truths := decode[Page[TruthInfo]](t, resp).Items
	if len(truths) == 0 {
		t.Error("no truths listed")
	}
	for _, tr := range truths {
		if tr.Nodes < 2 || tr.Confidence <= 0 {
			t.Errorf("bad truth %+v", tr)
		}
	}
}

func TestSourcesEndpoint(t *testing.T) {
	s, w := testServer(t)
	// Resolve at least one request so sources have outcomes.
	trip := w.Data.Trips[3]
	postJSON(t, s.URL+"/v1/recommend", RecommendRequest{
		From: trip.Route.Source(), To: trip.Route.Dest(), DepartMin: float64(trip.Depart),
	}).Body.Close()
	resp := mustGet(t, s.URL+"/v1/sources")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	sources := decode[[]SourceInfo](t, resp)
	if len(sources) == 0 {
		t.Fatal("no source stats after resolved requests")
	}
	for _, src := range sources {
		if src.Wins > src.Total || src.Precision <= 0 || src.Precision >= 1 {
			t.Errorf("bad source entry %+v", src)
		}
	}
}

func TestConcurrentRequests(t *testing.T) {
	s, w := testServer(t)
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			trip := w.Data.Trips[i%len(w.Data.Trips)]
			if trip.Route.Empty() {
				return
			}
			req := RecommendRequest{
				From: trip.Route.Source(), To: trip.Route.Dest(),
				DepartMin: float64(trip.Depart),
			}
			b, _ := json.Marshal(req)
			resp, err := http.Post(s.URL+"/v1/recommend", "application/json", bytes.NewReader(b))
			if err != nil {
				errs <- err
				return
			}
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				errs <- fmt.Errorf("status %d", resp.StatusCode)
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}
