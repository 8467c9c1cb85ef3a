package core

import (
	"context"
	"math"
	"sync"
	"testing"

	"crowdplanner/internal/roadnet"
	"crowdplanner/internal/routing"
	"crowdplanner/internal/traj"
	"crowdplanner/internal/truth"
)

// freshScenario builds a private world — the ingest tests mutate the corpus,
// so they must not share the read-mostly scenario of core_test.go.
func freshScenario(t *testing.T) *Scenario {
	t.Helper()
	return BuildScenario(SmallScenarioConfig())
}

// cloneTrips replays existing corpus trips as new observations (optionally
// shifting the departure), which are guaranteed to validate.
func cloneTrips(s *Scenario, n int, shiftMin float64) []traj.Trajectory {
	var out []traj.Trajectory
	for _, tr := range s.Data.Trips {
		if len(out) >= n {
			break
		}
		if tr.Route.Empty() {
			continue
		}
		out = append(out, traj.Trajectory{
			Driver: tr.Driver, Depart: tr.Depart.Add(shiftMin), Route: tr.Route,
		})
	}
	return out
}

// tripsAlong counts the corpus trips driver d made along route r, through
// the aggregate query LDR reads.
func tripsAlong(ds *traj.Dataset, d traj.DriverID, r roadnet.Route) int {
	n := 0
	for _, c := range ds.TripCounts(r.Source(), r.Dest(), 0) {
		if c.Driver == d && ds.Route(c.Route).Equal(r) {
			n += c.Trips
		}
	}
	return n
}

func TestIngestTripsValidationAndVisibility(t *testing.T) {
	s := freshScenario(t)
	sys := s.System
	before := sys.CorpusSize()

	good := cloneTrips(s, 3, 30)
	along := tripsAlong(s.Data, good[0].Driver, good[0].Route)
	// A provably disconnected hop: some node pair with no edge between them.
	var disconnected roadnet.Route
	for b := roadnet.NodeID(1); b < roadnet.NodeID(s.Graph.NumNodes()); b++ {
		if _, ok := s.Graph.FindEdge(0, b); !ok {
			disconnected = roadnet.NewRoute(0, b)
			break
		}
	}
	if disconnected.Empty() {
		t.Fatal("city is a clique; cannot build a disconnected hop")
	}
	bad := []traj.Trajectory{
		{Route: roadnet.Route{}}, // empty
		{Route: roadnet.NewRoute(0, roadnet.NodeID(s.Graph.NumNodes())+5)}, // out of range
		{Route: disconnected},                                        // nodes exist, edge does not
		{Route: good[0].Route, Depart: -5},                           // negative depart
		{Route: good[0].Route, Depart: routing.SimTime(math.NaN())},  // NaN depart
		{Route: good[0].Route, Depart: routing.SimTime(math.Inf(1))}, // +Inf depart
	}
	rep := sys.IngestTrips(append(append([]traj.Trajectory{}, good...), bad...))
	if rep.Accepted != len(good) {
		t.Fatalf("accepted = %d, want %d (rejections: %+v)", rep.Accepted, len(good), rep.Rejected)
	}
	if len(rep.Rejected) != len(bad) {
		t.Fatalf("rejected = %+v, want %d items", rep.Rejected, len(bad))
	}
	for i, r := range rep.Rejected {
		if r.Index != len(good)+i || r.Reason == "" {
			t.Errorf("rejection %d = %+v, want index %d with a reason", i, r, len(good)+i)
		}
	}
	if got := sys.CorpusSize(); got != before+len(good) {
		t.Fatalf("corpus size = %d, want %d", got, before+len(good))
	}
	if rep.TotalTrips != before+len(good) {
		t.Fatalf("report total = %d, want %d", rep.TotalTrips, before+len(good))
	}

	// The ingested trips are visible to the miners' query path immediately.
	want := along
	for _, tr := range good {
		if tr.Driver == good[0].Driver && tr.Route.Equal(good[0].Route) {
			want++
		}
	}
	if got := tripsAlong(s.Data, good[0].Driver, good[0].Route); got != want {
		t.Fatalf("TripCounts sees %d trips along the ingested route, want %d", got, want)
	}
}

// TestIngestInvalidatesRouteCache: a cached candidate set for the ingested
// trip's OD must be dropped in every departure slot — the new trip is mining
// evidence at any time of day.
func TestIngestInvalidatesRouteCache(t *testing.T) {
	s := freshScenario(t)
	sys := s.System
	trip := cloneTrips(s, 1, 0)[0]
	req := Request{From: trip.Route.Source(), To: trip.Route.Dest(), Depart: trip.Depart}

	if _, err := sys.Candidates(context.Background(), req); err != nil {
		t.Fatal(err)
	}
	if _, ok := sys.routes.Get(sys.cacheKey(req)); !ok {
		t.Fatal("candidate set was not cached")
	}
	invBefore := sys.RouteCacheStats().Invalidations

	rep := sys.IngestTrips([]traj.Trajectory{trip})
	if rep.Accepted != 1 {
		t.Fatalf("ingest rejected: %+v", rep.Rejected)
	}
	if _, ok := sys.routes.Get(sys.cacheKey(req)); ok {
		t.Fatal("cached candidate set survived ingestion for its OD")
	}
	if got := sys.RouteCacheStats().Invalidations; got == invBefore {
		t.Fatal("no cache invalidation recorded")
	}
}

// TestCrowdTruthInvalidatesAdjacentSlots is the regression test for the
// truth-window invalidation fix: truth.DB.Near honors TruthSlotTol, so a
// crowd truth commit must drop cached candidate sets in every slot within
// the tolerance window, not just the exact slot.
func TestCrowdTruthInvalidatesAdjacentSlots(t *testing.T) {
	s := freshScenario(t)
	sys := s.System
	if sys.cfg.TruthSlotTol < 1 {
		t.Fatalf("test requires TruthSlotTol >= 1, got %d", sys.cfg.TruthSlotTol)
	}
	from, to, depart := pickOD(s)

	// Warm the cache for the slot adjacent to the commit slot.
	slotMinutes := 24.0 * 60 / float64(truth.Slots)
	adjacent := Request{From: from, To: to, Depart: depart.Add(slotMinutes)}
	if _, err := sys.Candidates(context.Background(), adjacent); err != nil {
		t.Fatal(err)
	}
	if _, ok := sys.routes.Get(sys.cacheKey(adjacent)); !ok {
		t.Fatal("adjacent-slot candidate set was not cached")
	}

	// Commit a crowd truth at the base slot.
	commit := Request{From: from, To: to, Depart: depart}
	route, err := s.Data.GroundTruth(from, to, depart, 30)
	if err != nil {
		t.Fatal(err)
	}
	sys.storeTruth(commit, route, 0.9, true)

	if _, ok := sys.routes.Get(sys.cacheKey(adjacent)); ok {
		t.Fatal("cached candidate set in the adjacent slot survived a crowd truth within TruthSlotTol")
	}
	// An agreement-derived truth must NOT invalidate (cache stays useful in
	// re-evaluation mode).
	if _, err := sys.Candidates(context.Background(), adjacent); err != nil {
		t.Fatal(err)
	}
	sys.storeTruth(commit, route, 0.9, false)
	if _, ok := sys.routes.Get(sys.cacheKey(adjacent)); !ok {
		t.Fatal("derived truth evicted the cache; only crowd truths should")
	}
}

// TestConcurrentIngestAndRecommend hammers ingestion and the serving path
// from many goroutines; run with -race. Recommendations must keep
// succeeding while the corpus (and its mining indexes) grow underneath
// them.
func TestConcurrentIngestAndRecommend(t *testing.T) {
	s := freshScenario(t)
	sys := s.System
	base := sys.CorpusSize()
	pool := cloneTrips(s, 64, 15)

	const (
		ingesters    = 4
		recommenders = 8
		perWorker    = 12
	)
	var wg sync.WaitGroup
	errs := make(chan error, ingesters+recommenders)
	for w := 0; w < ingesters; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				tr := pool[(w*perWorker+i)%len(pool)]
				if rep := sys.IngestTrips([]traj.Trajectory{tr}); rep.Accepted != 1 {
					errs <- errIngest(rep)
					return
				}
			}
		}(w)
	}
	for w := 0; w < recommenders; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				tr := pool[(w+i*3)%len(pool)]
				req := Request{From: tr.Route.Source(), To: tr.Route.Dest(), Depart: tr.Depart}
				if _, err := sys.Recommend(context.Background(), req); err != nil {
					errs <- err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if got, want := sys.CorpusSize(), base+ingesters*perWorker; got != want {
		t.Fatalf("corpus size = %d, want %d", got, want)
	}
}

type errIngest IngestReport

func (e errIngest) Error() string { return "ingest rejected a valid trip" }
