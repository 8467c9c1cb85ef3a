package server

import (
	"context"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strconv"
	"sync"
	"testing"
	"time"

	"crowdplanner/internal/core"
	"crowdplanner/internal/store"
	"crowdplanner/internal/store/faultstore"
)

func TestTokenBucketRefill(t *testing.T) {
	g := newOverloadGuard(OverloadConfig{RatePerSec: 2, Burst: 2})
	base := time.Unix(1000, 0)
	for i := 0; i < 2; i++ {
		if ok, _ := g.allow("addr:a", base); !ok {
			t.Fatalf("request %d within burst was limited", i)
		}
	}
	ok, wait := g.allow("addr:a", base)
	if ok {
		t.Fatal("third request on an empty bucket allowed")
	}
	if wait <= 0 || wait > time.Second {
		t.Fatalf("retry hint = %v, want (0, 1s]", wait)
	}
	// Another client has its own bucket.
	if ok, _ := g.allow("key:other", base); !ok {
		t.Fatal("distinct client shares the dry bucket")
	}
	// Half a second refills one token at 2/s.
	if ok, _ := g.allow("addr:a", base.Add(500*time.Millisecond)); !ok {
		t.Fatal("bucket did not refill")
	}
}

// TestTokenBucketEviction fills the limiter to maxBuckets and checks that
// a new client sweeps out the buckets idle long enough to be full again,
// while a client still short of tokens keeps its bucket and its refusal.
func TestTokenBucketEviction(t *testing.T) {
	g := newOverloadGuard(OverloadConfig{RatePerSec: 1, Burst: 2}) // full after 2 s idle
	t0 := time.Unix(1000, 0)
	for i := 0; i < maxBuckets-1; i++ {
		g.allow("addr:"+strconv.Itoa(i), t0)
	}
	debtor := "key:debtor"
	for i := 0; i < 3; i++ {
		g.allow(debtor, t0.Add(1500*time.Millisecond))
	}
	if len(g.buckets) != maxBuckets {
		t.Fatalf("buckets = %d, want %d", len(g.buckets), maxBuckets)
	}
	if ok, _ := g.allow("key:new", t0.Add(2*time.Second)); !ok {
		t.Fatal("new client refused")
	}
	if len(g.buckets) != 2 || g.buckets[debtor] == nil || g.buckets["key:new"] == nil {
		t.Fatalf("after the sweep: %d buckets, debtor kept %v; want the debtor's and the new client's", len(g.buckets), g.buckets[debtor] != nil)
	}
	if ok, wait := g.allow(debtor, t0.Add(2*time.Second)); ok || wait != 500*time.Millisecond {
		t.Fatalf("debtor: allowed=%v wait=%v, want refused with 500ms", ok, wait)
	}
}

func TestRateLimitEndpoint(t *testing.T) {
	_, w := testServer(t)
	ts := httptest.NewServer(New(w.System, WithOverload(OverloadConfig{
		RatePerSec: 0.0001, Burst: 1,
	})).Handler())
	defer ts.Close()

	resp := mustGet(t, ts.URL+"/v1/truths")
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("first request status = %d", resp.StatusCode)
	}
	resp = mustGet(t, ts.URL+"/v1/truths")
	if resp.Header.Get("Retry-After") == "" {
		t.Error("rate-limited response missing Retry-After")
	}
	decodeEnvelope(t, resp, http.StatusTooManyRequests, string(CodeRateLimited))

	// A different API key is a different bucket.
	req, _ := http.NewRequest(http.MethodGet, ts.URL+"/v1/truths", nil)
	req.Header.Set("X-API-Key", "someone-else")
	r2, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	r2.Body.Close()
	if r2.StatusCode != http.StatusOK {
		t.Fatalf("distinct-key request status = %d", r2.StatusCode)
	}

	// Health stays reachable however dry the bucket is, and reports the
	// rejection count.
	for i := 0; i < 3; i++ {
		hr := mustGet(t, ts.URL+"/v1/health")
		if hr.StatusCode != http.StatusOK {
			t.Fatalf("health request %d status = %d (must be exempt)", i, hr.StatusCode)
		}
		if i < 2 {
			hr.Body.Close()
			continue
		}
		h := decode[HealthResponse](t, hr)
		if !h.Overload.Enabled || h.Overload.RateLimited < 1 {
			t.Fatalf("health overload section = %+v", h.Overload)
		}
	}
}

// blockingServer wires the overload middleware around a handler the test can
// hold open and release, for deterministic queue-state control.
func blockingServer(t *testing.T, w *core.Scenario, cfg OverloadConfig) (*httptest.Server, *Server, chan struct{}, chan struct{}) {
	t.Helper()
	s := New(w.System, WithOverload(cfg))
	entered := make(chan struct{}, 64)
	release := make(chan struct{}, 64)
	h := s.withOverload(http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
		entered <- struct{}{}
		<-release
		rw.WriteHeader(http.StatusOK)
	}))
	ts := httptest.NewServer(withRequestID(h))
	t.Cleanup(ts.Close)
	return ts, s, entered, release
}

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

func TestAdmissionQueueShedsBeyondBounds(t *testing.T) {
	_, w := testServer(t)
	ts, s, entered, release := blockingServer(t, w, OverloadConfig{MaxConcurrent: 1, MaxQueue: 1})
	g := s.overload

	status := make(chan int, 4)
	get := func() {
		resp, err := http.Get(ts.URL + "/v1/truths")
		if err != nil {
			t.Error(err)
			status <- -1
			return
		}
		resp.Body.Close()
		status <- resp.StatusCode
	}

	go get() // A: takes the service slot
	<-entered
	go get() // B: waits in the queue
	waitFor(t, "request B to queue", func() bool { return g.queued.Load() == 1 })

	// C: queue full → shed with 429 + Retry-After.
	resp, err := http.Get(ts.URL + "/v1/truths")
	if err != nil {
		t.Fatal(err)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("shed response missing Retry-After")
	}
	decodeEnvelope(t, resp, http.StatusTooManyRequests, string(CodeOverloaded))
	if g.shed.Load() != 1 {
		t.Fatalf("shed counter = %d, want 1", g.shed.Load())
	}

	// Release A; B is admitted from the queue and completes too.
	release <- struct{}{}
	<-entered
	release <- struct{}{}
	for i := 0; i < 2; i++ {
		if code := <-status; code != http.StatusOK {
			t.Fatalf("admitted request %d finished with %d", i, code)
		}
	}
	waitFor(t, "slots to drain", func() bool {
		return g.queued.Load() == 0 && len(g.sem) == 0
	})
}

func TestQueuedRequestAbortsWithCaller(t *testing.T) {
	_, w := testServer(t)
	ts, s, entered, release := blockingServer(t, w, OverloadConfig{MaxConcurrent: 1, MaxQueue: 4})
	g := s.overload

	done := make(chan struct{})
	go func() {
		resp, err := http.Get(ts.URL + "/v1/truths")
		if err == nil {
			resp.Body.Close()
		}
		close(done)
	}()
	<-entered

	ctx, cancel := context.WithCancel(context.Background())
	req, _ := http.NewRequestWithContext(ctx, http.MethodGet, ts.URL+"/v1/truths", nil)
	errc := make(chan error, 1)
	go func() {
		_, err := http.DefaultClient.Do(req)
		errc <- err
	}()
	waitFor(t, "request to queue", func() bool { return g.queued.Load() == 1 })

	// The caller gives up; its queue slot must be returned, not leaked.
	cancel()
	if err := <-errc; err == nil {
		t.Fatal("cancelled request returned no error")
	}
	waitFor(t, "queue slot release", func() bool { return g.queued.Load() == 0 })

	release <- struct{}{}
	<-done
}

func TestRequestTimeoutBudget(t *testing.T) {
	_, w := testServer(t)
	s := New(w.System, WithOverload(OverloadConfig{RequestTimeout: 50 * time.Millisecond}))
	var sawDeadline bool
	h := s.withOverload(http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
		_, sawDeadline = r.Context().Deadline()
		rw.WriteHeader(http.StatusOK)
	}))
	ts := httptest.NewServer(h)
	defer ts.Close()
	resp, err := http.Get(ts.URL + "/v1/recommend")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if !sawDeadline {
		t.Fatal("admitted request carried no deadline")
	}

	// End to end: a budget the pipeline cannot meet surfaces as 504.
	tiny := httptest.NewServer(New(w.System, WithOverload(OverloadConfig{RequestTimeout: time.Nanosecond})).Handler())
	defer tiny.Close()
	trip := w.Data.Trips[0]
	resp = postJSON(t, tiny.URL+"/v1/recommend", RecommendRequest{
		From: trip.Route.Source(), To: trip.Route.Dest(), DepartMin: float64(trip.Depart),
	})
	decodeEnvelope(t, resp, http.StatusGatewayTimeout, string(CodeDeadlineExceeded))
}

func TestOverloadBurstNoGoroutineLeak(t *testing.T) {
	_, w := testServer(t)
	ts, s, entered, release := blockingServer(t, w, OverloadConfig{MaxConcurrent: 2, MaxQueue: 2})
	g := s.overload
	before := runtime.NumGoroutine()

	const n = 20
	var wg sync.WaitGroup
	var ok200, shed429 sync.Map
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, err := http.Get(ts.URL + "/v1/truths")
			if err != nil {
				t.Error(err)
				return
			}
			resp.Body.Close()
			switch resp.StatusCode {
			case http.StatusOK:
				ok200.Store(i, true)
			case http.StatusTooManyRequests:
				shed429.Store(i, true)
			default:
				t.Errorf("request %d: status %d", i, resp.StatusCode)
			}
		}()
	}
	// Keep the pipeline moving: every admitted request gets released.
	go func() {
		for range entered {
			release <- struct{}{}
		}
	}()
	wg.Wait()
	close(entered)

	oks, sheds := 0, 0
	ok200.Range(func(any, any) bool { oks++; return true })
	shed429.Range(func(any, any) bool { sheds++; return true })
	if oks+sheds != n || oks < 2 {
		t.Fatalf("burst of %d: %d served, %d shed", n, oks, sheds)
	}
	if int(g.shed.Load()) != sheds {
		t.Fatalf("shed counter = %d, clients saw %d", g.shed.Load(), sheds)
	}

	waitFor(t, "goroutines to drain", func() bool {
		runtime.GC()
		return runtime.NumGoroutine() <= before+8
	})
}

// degradedWorld builds a private scenario whose storage backend fails every
// append on command, with a hair-trigger breaker.
func degradedWorld(t *testing.T) (*core.Scenario, *faultstore.Store, *httptest.Server) {
	t.Helper()
	fs := faultstore.New(store.Discard(), faultstore.FailAppends(nil))
	cfg := core.SmallScenarioConfig()
	cfg.System.Store = fs
	cfg.System.Breaker = core.BreakerConfig{Threshold: 2, ProbeEvery: 1}
	w := core.BuildScenario(cfg)
	ts := httptest.NewServer(New(w.System).Handler())
	t.Cleanup(ts.Close)
	return w, fs, ts
}

// nextODFunc yields trips with pairwise-distinct OD pairs, so every
// recommend commits a fresh truth (reuse would skip the append).
func nextODFunc(w *core.Scenario) func(t *testing.T) RecommendRequest {
	seen := map[[2]int64]bool{}
	i := 0
	return func(t *testing.T) RecommendRequest {
		t.Helper()
		for ; i < len(w.Data.Trips); i++ {
			tr := w.Data.Trips[i]
			if tr.Route.Empty() {
				continue
			}
			key := [2]int64{int64(tr.Route.Source()), int64(tr.Route.Dest())}
			if seen[key] {
				continue
			}
			seen[key] = true
			i++
			return RecommendRequest{From: tr.Route.Source(), To: tr.Route.Dest(), DepartMin: float64(tr.Depart)}
		}
		t.Fatal("ran out of distinct ODs")
		return RecommendRequest{}
	}
}

func TestDegradedModeEndToEnd(t *testing.T) {
	w, fs, ts := degradedWorld(t)
	nextOD := nextODFunc(w)

	// Recommends keep succeeding while their truth commits fail; after the
	// threshold the breaker opens.
	for i := 0; i < 20 && !w.System.Degraded(); i++ {
		resp := postJSON(t, ts.URL+"/v1/recommend", nextOD(t))
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("recommend %d status = %d while backend sick (must stay served)", i, resp.StatusCode)
		}
	}
	if !w.System.Degraded() {
		t.Fatal("breaker never opened")
	}

	h := decode[HealthResponse](t, mustGet(t, ts.URL+"/v1/health"))
	if h.Status != "degraded" {
		t.Fatalf("health status = %q, want degraded", h.Status)
	}
	if h.Store.Breaker.State != core.BreakerOpen {
		t.Fatalf("breaker state = %q, want open", h.Store.Breaker.State)
	}

	// Mutating endpoints are read-only: 503 + Retry-After.
	resp := postJSON(t, ts.URL+"/v1/trajectories", IngestRequest{})
	if resp.Header.Get("Retry-After") == "" {
		t.Error("degraded 503 missing Retry-After")
	}
	decodeEnvelope(t, resp, http.StatusServiceUnavailable, string(CodeDegraded))
	resp = postJSON(t, ts.URL+"/v1/recommend/async", RecommendRequest{})
	decodeEnvelope(t, resp, http.StatusServiceUnavailable, string(CodeDegraded))

	// Reads and synchronous recommends still serve.
	resp = postJSON(t, ts.URL+"/v1/recommend", nextOD(t))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("degraded recommend status = %d", resp.StatusCode)
	}
	resp.Body.Close()

	// Heal lever 1: backend recovers, operator snapshots. The snapshot is
	// never short-circuited and its success closes the breaker.
	fs.SetPlan(faultstore.Healthy())
	resp = postJSON(t, ts.URL+"/v1/admin/snapshot", struct{}{})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("admin snapshot status = %d", resp.StatusCode)
	}
	resp.Body.Close()
	if w.System.Degraded() {
		t.Fatal("snapshot success did not close the breaker")
	}
	h = decode[HealthResponse](t, mustGet(t, ts.URL+"/v1/health"))
	if h.Status != "ok" {
		t.Fatalf("healed health status = %q", h.Status)
	}
	var tripReq IngestRequest
	for _, tr := range w.Data.Trips {
		if tr.Route.Empty() {
			continue
		}
		trip := TrajTrip{Driver: int32(tr.Driver), DepartMin: float64(tr.Depart) + 33}
		for _, n := range tr.Route.Nodes {
			trip.Nodes = append(trip.Nodes, int64(n))
		}
		tripReq.Trips = append(tripReq.Trips, trip)
		break
	}
	resp = postJSON(t, ts.URL+"/v1/trajectories", tripReq)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("post-heal ingest status = %d", resp.StatusCode)
	}
	resp.Body.Close()

	// Heal lever 2: re-open the breaker, then let probe traffic close it —
	// the half-open path. With ProbeEvery=1 the first recommend's truth
	// append after the backend heals is the successful probe.
	fs.SetPlan(faultstore.FailAppends(nil))
	for i := 0; i < 20 && !w.System.Degraded(); i++ {
		postJSON(t, ts.URL+"/v1/recommend", nextOD(t)).Body.Close()
	}
	if !w.System.Degraded() {
		t.Fatal("breaker did not re-open")
	}
	fs.SetPlan(faultstore.Healthy())
	for i := 0; i < 5 && w.System.Degraded(); i++ {
		postJSON(t, ts.URL+"/v1/recommend", nextOD(t)).Body.Close()
	}
	if w.System.Degraded() {
		t.Fatal("probe traffic did not close the breaker")
	}
	st := w.System.BreakerStats()
	if st.Probes == 0 || st.Opens != 2 {
		t.Fatalf("breaker stats after recovery = %+v, want probes>0, opens=2", st)
	}
	h = decode[HealthResponse](t, mustGet(t, ts.URL+"/v1/health"))
	if h.Status != "ok" || h.Store.Breaker.State != core.BreakerClosed {
		t.Fatalf("final health = %q / breaker %q", h.Status, h.Store.Breaker.State)
	}
}
