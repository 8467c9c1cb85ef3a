package routing

import (
	"math"
	"math/rand"
	"sync"
	"testing"

	"crowdplanner/internal/geo"
	"crowdplanner/internal/roadnet"
)

// The ALT tier must be invisible in results: landmark-accelerated searches
// return the same node sequences as plain Dijkstra on every query (the
// heuristic is admissible and consistent, so it only changes which nodes get
// settled, never which route wins). These sweeps mirror the PR-5 equivalence
// tests: >=200 random ODs per cost model, node-sequence equality, exact cost
// equality (equal routes sum the same floats in the same order).

func prepFor(g *roadnet.Graph, cost CostFunc) *Preprocessed {
	return Preprocess(g, cost, PrepConfig{Landmarks: 12, Active: 6})
}

// TestALTMatchesDijkstraSequences: landmark-accelerated AStar vs plain
// Dijkstra, both cost models, peak and night departures.
func TestALTMatchesDijkstraSequences(t *testing.T) {
	g := equivGraph(14, 14)
	rng := rand.New(rand.NewSource(45))
	for _, tc := range equivCases() {
		p := prepFor(g, tc.cost)
		checked := 0
		for trial := 0; checked < 220; trial++ {
			src := roadnet.NodeID(rng.Intn(g.NumNodes()))
			dst := roadnet.NodeID(rng.Intn(g.NumNodes()))
			dijR, dijC, dijErr := ShortestPath(g, src, dst, tc.cost, tc.t)
			altR, altC, altErr := p.AStar(src, dst, tc.t)
			if (dijErr == nil) != (altErr == nil) {
				t.Fatalf("%s %d->%d: err mismatch dij=%v alt=%v", tc.name, src, dst, dijErr, altErr)
			}
			if dijErr != nil {
				continue
			}
			checked++
			if !dijR.Equal(altR) {
				t.Fatalf("%s %d->%d: route dij=%v alt=%v", tc.name, src, dst, dijR, altR)
			}
			if dijC != altC {
				t.Fatalf("%s %d->%d: cost dij=%v alt=%v", tc.name, src, dst, dijC, altC)
			}
		}
	}
}

// TestALTKShortestMatchesPlain: ALT-accelerated Yen vs the plain engine,
// route for route — spur searches under landmark bounds must produce the
// same deviations in the same order.
func TestALTKShortestMatchesPlain(t *testing.T) {
	g := equivGraph(10, 10)
	rng := rand.New(rand.NewSource(46))
	for _, tc := range equivCases() {
		p := prepFor(g, tc.cost)
		checked := 0
		for trial := 0; checked < 120; trial++ {
			src := roadnet.NodeID(rng.Intn(g.NumNodes()))
			dst := roadnet.NodeID(rng.Intn(g.NumNodes()))
			k := 2 + rng.Intn(4)
			plainRs, plainCs, plainErr := KShortest(g, src, dst, k, tc.cost, tc.t)
			altRs, altCs, altErr := p.KShortest(src, dst, k, tc.t)
			if (plainErr == nil) != (altErr == nil) {
				t.Fatalf("%s %d->%d k=%d: err mismatch %v vs %v", tc.name, src, dst, k, plainErr, altErr)
			}
			if plainErr != nil {
				continue
			}
			checked++
			if len(plainRs) != len(altRs) {
				t.Fatalf("%s %d->%d k=%d: %d routes plain vs %d alt", tc.name, src, dst, k, len(plainRs), len(altRs))
			}
			for j := range plainRs {
				if !plainRs[j].Equal(altRs[j]) || plainCs[j] != altCs[j] {
					t.Fatalf("%s %d->%d k=%d route %d: plain=%v alt=%v", tc.name, src, dst, k, j, plainRs[j], altRs[j])
				}
			}
		}
	}
}

// TestPreprocessDeterministic: two builds over the same inputs produce
// identical landmark sets and identical tables (farthest-point selection
// breaks all ties toward the lowest node ID).
func TestPreprocessDeterministic(t *testing.T) {
	g := equivGraph(10, 10)
	for _, tc := range equivCases() {
		a := prepFor(g, tc.cost)
		b := prepFor(g, tc.cost)
		if len(a.lands) != len(b.lands) {
			t.Fatalf("%s: landmark counts differ: %d vs %d", tc.name, len(a.lands), len(b.lands))
		}
		for i := range a.lands {
			if a.lands[i] != b.lands[i] {
				t.Fatalf("%s: landmark %d differs: %d vs %d", tc.name, i, a.lands[i], b.lands[i])
			}
		}
		for i := range a.fwd {
			if a.fwd[i] != b.fwd[i] && !(math.IsInf(a.fwd[i], 1) && math.IsInf(b.fwd[i], 1)) {
				t.Fatalf("%s: fwd[%d] differs: %v vs %v", tc.name, i, a.fwd[i], b.fwd[i])
			}
		}
		for i := range a.rev {
			if a.rev[i] != b.rev[i] && !(math.IsInf(a.rev[i], 1) && math.IsInf(b.rev[i], 1)) {
				t.Fatalf("%s: rev[%d] differs: %v vs %v", tc.name, i, a.rev[i], b.rev[i])
			}
		}
		// And the routes built on them agree query for query.
		rng := rand.New(rand.NewSource(47))
		for q := 0; q < 40; q++ {
			src := roadnet.NodeID(rng.Intn(g.NumNodes()))
			dst := roadnet.NodeID(rng.Intn(g.NumNodes()))
			ra, ca, ea := a.AStar(src, dst, tc.t)
			rb, cb, eb := b.AStar(src, dst, tc.t)
			if (ea == nil) != (eb == nil) || (ea == nil && (!ra.Equal(rb) || ca != cb)) {
				t.Fatalf("%s %d->%d: two identical builds disagree", tc.name, src, dst)
			}
		}
	}
}

// TestPreprocessDegenerate: tiny and disconnected graphs must neither panic
// nor corrupt results.
func TestPreprocessDegenerate(t *testing.T) {
	empty := roadnet.NewGraph(0, 0)
	p := Preprocess(empty, DistanceCost, DefaultPrepConfig())
	if s := p.Stats(); s.Landmarks != 0 || s.Nodes != 0 {
		t.Fatalf("empty graph stats = %+v", s)
	}
	if _, _, err := p.AStar(0, 0, 0); err == nil {
		t.Fatal("empty graph AStar: expected node-range error")
	}

	single := roadnet.NewGraph(1, 0)
	single.AddNode(geo.Point{})
	p = Preprocess(single, DistanceCost, DefaultPrepConfig())
	if s := p.Stats(); s.Landmarks != 1 {
		t.Fatalf("single-node landmarks = %d, want 1", s.Landmarks)
	}
	r, c, err := p.AStar(0, 0, 0)
	if err != nil || c != 0 || len(r.Nodes) != 1 || r.Nodes[0] != 0 {
		t.Fatalf("single-node self route = %v cost %v err %v", r, c, err)
	}

	// Two disconnected 2-node components: landmark coverage must spread
	// across components (+Inf farthest-point picks), in-component queries
	// work, cross-component queries report ErrNoRoute.
	disc := roadnet.NewGraph(4, 4)
	for i := 0; i < 4; i++ {
		disc.AddNode(geo.Point{X: float64(i) * 1000})
	}
	disc.AddEdge(0, 1, roadnet.Local, 0, 0, 0)
	disc.AddEdge(1, 0, roadnet.Local, 0, 0, 0)
	disc.AddEdge(2, 3, roadnet.Local, 0, 0, 0)
	disc.AddEdge(3, 2, roadnet.Local, 0, 0, 0)
	p = Preprocess(disc, DistanceCost, PrepConfig{Landmarks: 4, Active: 4})
	comp := map[roadnet.NodeID]bool{}
	for _, l := range p.lands {
		comp[l] = true
	}
	if !(comp[0] || comp[1]) || !(comp[2] || comp[3]) {
		t.Fatalf("landmarks %v do not cover both components", p.lands)
	}
	if r, _, err := p.AStar(0, 1, 0); err != nil || !r.Equal(roadnet.NewRoute(0, 1)) {
		t.Fatalf("in-component route = %v err %v", r, err)
	}
	if _, _, err := p.AStar(0, 3, 0); err != ErrNoRoute {
		t.Fatalf("cross-component err = %v, want ErrNoRoute", err)
	}
}

// TestEdgeBoundsAdmissible pins the preprocessing metric: every edge's
// lower-bound weight must stay at or below the true cost at every hour of the
// day, for both cost models (TravelTimeCost's congestion factor never drops
// below 1, DistanceCost is time-independent).
func TestEdgeBoundsAdmissible(t *testing.T) {
	g := equivGraph(8, 8)
	for _, cost := range []CostFunc{DistanceCost, TravelTimeCost} {
		w := edgeBounds(g, cost)
		for i := range w {
			e := g.Edge(roadnet.EdgeID(i))
			for halfHour := 0; halfHour < 48; halfHour++ {
				at := At(0, halfHour/2, (halfHour%2)*30)
				if c := cost.Cost(e, at); w[i] > c+1e-12 {
					t.Fatalf("edge %d: bound %v exceeds cost %v at %v", i, w[i], c, at)
				}
			}
		}
	}
}

// TestALTConcurrent is the -race hammer for the preprocessing tier: one
// shared Preprocessed serves single-pair and k-shortest queries from many
// goroutines, each result checked against a serial baseline. The tables are
// immutable after build, so any divergence is a workspace bug.
func TestALTConcurrent(t *testing.T) {
	g := equivGraph(10, 10)
	p := prepFor(g, TravelTimeCost)
	depart := At(0, 8, 0)

	type want struct {
		src, dst roadnet.NodeID
		r        roadnet.Route
		c        float64
		err      bool
	}
	rng := rand.New(rand.NewSource(48))
	cases := make([]want, 0, 24)
	for len(cases) < 24 {
		src := roadnet.NodeID(rng.Intn(g.NumNodes()))
		dst := roadnet.NodeID(rng.Intn(g.NumNodes()))
		w := want{src: src, dst: dst}
		var err error
		if w.r, w.c, err = p.AStar(src, dst, depart); err != nil {
			w.err = true
		}
		cases = append(cases, w)
	}

	const goroutines = 16
	const reps = 40
	var wg sync.WaitGroup
	for gi := 0; gi < goroutines; gi++ {
		wg.Add(1)
		go func(gi int) {
			defer wg.Done()
			for rep := 0; rep < reps; rep++ {
				w := cases[(gi+rep)%len(cases)]
				r, c, err := p.AStar(w.src, w.dst, depart)
				if w.err {
					if err == nil {
						t.Errorf("%d->%d: expected error", w.src, w.dst)
					}
					continue
				}
				if err != nil || !r.Equal(w.r) || c != w.c {
					t.Errorf("%d->%d: concurrent ALT search diverged (%v)", w.src, w.dst, err)
				}
			}
		}(gi)
	}
	wg.Wait()
}

// TestALTWarmAllocations extends the 1-alloc/op contract to the landmark
// tier: a warmed-up preprocessed search allocates only its result route.
func TestALTWarmAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates inside sync.Pool")
	}
	g := equivGraph(10, 10)
	p := prepFor(g, DistanceCost)
	src, dst := roadnet.NodeID(3), roadnet.NodeID(g.NumNodes()-4)
	if _, _, err := p.AStar(src, dst, 0); err != nil {
		t.Fatal(err)
	}
	ws := acquireSpace(g)
	releaseSpace(ws)
	allocs := testing.AllocsPerRun(50, func() {
		_, _, _ = p.AStar(src, dst, 0)
	})
	if allocs > 1 {
		t.Errorf("warm ALT AStar allocs/op = %v, want <= 1", allocs)
	}
}

// TestPrepStatsAndCounters: PrepStats reflects the build, and the
// process-wide counters (surfaced through /v1/health) advance across builds
// and ALT queries.
func TestPrepStatsAndCounters(t *testing.T) {
	g := equivGraph(8, 8)
	before := CounterSnapshot()
	p := Preprocess(g, TravelTimeCost, PrepConfig{Landmarks: 6, Active: 3})
	s := p.Stats()
	if s.Landmarks != 6 || s.Nodes != g.NumNodes() {
		t.Fatalf("stats = %+v", s)
	}
	if want := int64(2 * 6 * g.NumNodes() * 8); s.TableBytes != want {
		t.Fatalf("TableBytes = %d, want %d", s.TableBytes, want)
	}
	if s.BuildMs < 0 {
		t.Fatalf("BuildMs = %v", s.BuildMs)
	}
	if _, _, err := p.AStar(0, roadnet.NodeID(g.NumNodes()-1), At(0, 8, 0)); err != nil {
		t.Fatal(err)
	}
	after := CounterSnapshot()
	if after.PrepBuilds != before.PrepBuilds+1 {
		t.Errorf("PrepBuilds advanced by %d, want 1", after.PrepBuilds-before.PrepBuilds)
	}
	if after.PrepLandmarks != before.PrepLandmarks+6 {
		t.Errorf("PrepLandmarks advanced by %d, want 6", after.PrepLandmarks-before.PrepLandmarks)
	}
	if after.PrepTableBytes <= before.PrepTableBytes {
		t.Error("PrepTableBytes did not advance")
	}
	if after.ALTSearches != before.ALTSearches+1 {
		t.Errorf("ALTSearches advanced by %d, want 1", after.ALTSearches-before.ALTSearches)
	}
	if after.ALTActiveLandmarks <= before.ALTActiveLandmarks {
		t.Error("ALTActiveLandmarks did not advance")
	}
}
