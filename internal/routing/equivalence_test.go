package routing

import (
	"errors"
	"math"
	"math/rand"
	"testing"

	"crowdplanner/internal/geo"
	"crowdplanner/internal/roadnet"
)

// The rewritten engine must return bit-identical results to the old one
// (reference_test.go): same node sequences, not just same costs. These
// property tests sweep random OD pairs on a generated city under both cost
// models and several departure times (TravelTimeCost is time-dependent,
// which exercises the settled-at-pop evaluation order and Yen's prefix-cost
// accumulation).

func equivGraph(cols, rows int) *roadnet.Graph {
	cfg := roadnet.DefaultGenConfig()
	cfg.Cols, cfg.Rows = cols, rows
	return roadnet.Generate(cfg)
}

func equivCases() []struct {
	name string
	cost CostFunc
	t    SimTime
} {
	return []struct {
		name string
		cost CostFunc
		t    SimTime
	}{
		{"distance", DistanceCost, 0},
		{"traveltime-night", TravelTimeCost, At(0, 3, 0)},
		{"traveltime-peak", TravelTimeCost, At(0, 8, 0)},
	}
}

// TestShortestPathMatchesReference: >=200 random ODs, old vs new Dijkstra,
// node sequences and costs.
func TestShortestPathMatchesReference(t *testing.T) {
	g := equivGraph(14, 14)
	rng := rand.New(rand.NewSource(42))
	for _, tc := range equivCases() {
		checked := 0
		for trial := 0; checked < 220; trial++ {
			src := roadnet.NodeID(rng.Intn(g.NumNodes()))
			dst := roadnet.NodeID(rng.Intn(g.NumNodes()))
			oldR, oldC, oldErr := refShortestPath(g, src, dst, tc.cost, tc.t)
			newR, newC, newErr := ShortestPath(g, src, dst, tc.cost, tc.t)
			if (oldErr == nil) != (newErr == nil) {
				t.Fatalf("%s %d->%d: err mismatch old=%v new=%v", tc.name, src, dst, oldErr, newErr)
			}
			if oldErr != nil {
				continue
			}
			checked++
			if oldC != newC {
				t.Fatalf("%s %d->%d: cost old=%v new=%v", tc.name, src, dst, oldC, newC)
			}
			if !oldR.Equal(newR) {
				t.Fatalf("%s %d->%d: route old=%v new=%v", tc.name, src, dst, oldR, newR)
			}
		}
	}
}

// TestAStarMatchesDijkstraSequences: >=200 random ODs, goal-directed vs
// plain search, node sequences (the acceptance bar for wiring A* into the
// serving path). Also cross-checks against the reference engine's A*, and
// AStarBounded with the exact distances to dst under the cost's per-edge
// lower bound (DistancesTo) as its bound.
func TestAStarMatchesDijkstraSequences(t *testing.T) {
	g := equivGraph(14, 14)
	rng := rand.New(rand.NewSource(43))
	lb := make([]float64, g.NumNodes())
	for _, tc := range equivCases() {
		if tc.cost.MinCostPerMeter(g) <= 0 {
			t.Fatalf("%s: expected a positive heuristic bound", tc.name)
		}
		w := edgeBounds(g, tc.cost)
		checked := 0
		for trial := 0; checked < 220; trial++ {
			src := roadnet.NodeID(rng.Intn(g.NumNodes()))
			dst := roadnet.NodeID(rng.Intn(g.NumNodes()))
			dijR, dijC, dijErr := ShortestPath(g, src, dst, tc.cost, tc.t)
			astR, astC, astErr := AStar(g, src, dst, tc.cost, tc.t)
			if (dijErr == nil) != (astErr == nil) {
				t.Fatalf("%s %d->%d: err mismatch dij=%v astar=%v", tc.name, src, dst, dijErr, astErr)
			}
			if dijErr != nil {
				continue
			}
			checked++
			if math.Abs(dijC-astC) > 1e-9*math.Max(1, dijC) {
				t.Fatalf("%s %d->%d: cost dij=%v astar=%v", tc.name, src, dst, dijC, astC)
			}
			if !dijR.Equal(astR) {
				t.Fatalf("%s %d->%d: route dij=%v astar=%v", tc.name, src, dst, dijR, astR)
			}
			refR, _, refErr := refAStar(g, src, dst, tc.cost, tc.t, tc.cost.MinCostPerMeter(g))
			if refErr != nil || !refR.Equal(astR) {
				t.Fatalf("%s %d->%d: ref astar %v (%v) vs new %v", tc.name, src, dst, refR, refErr, astR)
			}
			if err := DistancesTo(g, w, dst, lb); err != nil {
				t.Fatal(err)
			}
			bR, bC, bErr := AStarBounded(g, src, dst, tc.cost, tc.t, lb)
			if bErr != nil || bC != dijC || !bR.Equal(dijR) {
				t.Fatalf("%s %d->%d: bounded %v (%v, %v) vs dij %v (%v)", tc.name, src, dst, bR, bC, bErr, dijR, dijC)
			}
		}
	}
}

// TestKShortestMatchesReference: >=200 random ODs with k up to 16, old Yen
// (full spur sweep + sort per round) vs Lawler-optimized Yen (deviation
// index + candidate heap + epoch bans + incremental prefix costs). Node
// sequences and costs, route for route.
func TestKShortestMatchesReference(t *testing.T) {
	g := equivGraph(10, 10)
	rng := rand.New(rand.NewSource(44))
	for _, tc := range equivCases() {
		checked := 0
		for trial := 0; checked < 210; trial++ {
			src := roadnet.NodeID(rng.Intn(g.NumNodes()))
			dst := roadnet.NodeID(rng.Intn(g.NumNodes()))
			k := 2 + rng.Intn(15) // 2..16
			oldRs, oldCs, oldErr := refKShortest(g, src, dst, k, tc.cost, tc.t)
			newRs, newCs, newErr := KShortest(g, src, dst, k, tc.cost, tc.t)
			if (oldErr == nil) != (newErr == nil) {
				t.Fatalf("%s %d->%d k=%d: err mismatch old=%v new=%v", tc.name, src, dst, k, oldErr, newErr)
			}
			if oldErr != nil {
				continue
			}
			checked++
			if len(oldRs) != len(newRs) {
				t.Fatalf("%s %d->%d k=%d: %d routes old vs %d new", tc.name, src, dst, k, len(oldRs), len(newRs))
			}
			for j := range oldRs {
				if !oldRs[j].Equal(newRs[j]) {
					t.Fatalf("%s %d->%d k=%d route %d: old=%v new=%v", tc.name, src, dst, k, j, oldRs[j], newRs[j])
				}
				if oldCs[j] != newCs[j] {
					t.Fatalf("%s %d->%d k=%d route %d: cost old=%v new=%v", tc.name, src, dst, k, j, oldCs[j], newCs[j])
				}
			}
		}
	}
}

// TestAStarAdmissibleOnNonStandardGraphs pins the per-graph heuristic
// bounds: an edge faster than every class default (over-limit highway) and
// an edge shorter than the straight line between its endpoints (a tunnel
// priced below crow-flies) would both make the old fixed bounds
// inadmissible; MaxSpeedKmh/MinLengthRatio weaken the heuristic instead, so
// A* still returns Dijkstra's route on every OD.
func TestAStarAdmissibleOnNonStandardGraphs(t *testing.T) {
	// A 2x3 grid, 1km spacing.
	g := roadnet.NewGraph(6, 14)
	for r := 0; r < 2; r++ {
		for c := 0; c < 3; c++ {
			g.AddNode(geo.Point{X: float64(c) * 1000, Y: float64(r) * 1000})
		}
	}
	add := func(a, b roadnet.NodeID, speed, length float64) {
		g.AddEdge(a, b, roadnet.Local, speed, 0, length)
		g.AddEdge(b, a, roadnet.Local, speed, 0, length)
	}
	add(0, 1, 0, 0)   // class default, straight length
	add(1, 2, 130, 0) // over the highway class limit
	add(3, 4, 0, 0)
	add(4, 5, 0, 0)
	add(0, 3, 0, 0)
	add(1, 4, 0, 600) // "tunnel": shorter than the 1000m straight line
	add(2, 5, 0, 0)
	if g.MaxSpeedKmh() != 130 {
		t.Fatalf("MaxSpeedKmh = %v, want 130", g.MaxSpeedKmh())
	}
	if r := g.MinLengthRatio(); r != 0.6 {
		t.Fatalf("MinLengthRatio = %v, want 0.6", r)
	}
	for _, cost := range []CostFunc{DistanceCost, TravelTimeCost} {
		for src := roadnet.NodeID(0); int(src) < g.NumNodes(); src++ {
			for dst := roadnet.NodeID(0); int(dst) < g.NumNodes(); dst++ {
				dr, dc, derr := ShortestPath(g, src, dst, cost, At(0, 8, 0))
				ar, ac, aerr := AStar(g, src, dst, cost, At(0, 8, 0))
				if (derr == nil) != (aerr == nil) {
					t.Fatalf("%d->%d: err mismatch %v vs %v", src, dst, derr, aerr)
				}
				if derr != nil {
					continue
				}
				if !dr.Equal(ar) || math.Abs(dc-ac) > 1e-9*math.Max(1, dc) {
					t.Fatalf("%d->%d: dijkstra %v (%v) vs astar %v (%v)", src, dst, dr, dc, ar, ac)
				}
			}
		}
	}
}

// TestSearchInfiniteEdgeCosts pins the +Inf convention MFP's frequency
// filter relies on: an unreached node has implicit distance +Inf, and a
// strict-improvement relaxation never relaxes through a +Inf edge, so a
// destination behind only-+Inf edges reports ErrNoRoute.
func TestSearchInfiniteEdgeCosts(t *testing.T) {
	g := diamond()
	blockAll := CostFn(func(e *roadnet.Edge, _ SimTime) float64 { return math.Inf(1) })
	if _, _, err := ShortestPath(g, 0, 4, blockAll, 0); err != ErrNoRoute {
		t.Fatalf("all-Inf err = %v, want ErrNoRoute", err)
	}
	// Block only the short branch: search must take the long way around,
	// exactly as the reference engine does.
	blockTop := CostFn(func(e *roadnet.Edge, _ SimTime) float64 {
		if e.From == 1 || e.To == 1 {
			return math.Inf(1)
		}
		return e.Length
	})
	oldR, _, oldErr := refShortestPath(g, 0, 4, blockTop, 0)
	newR, _, newErr := ShortestPath(g, 0, 4, blockTop, 0)
	if oldErr != nil || newErr != nil || !oldR.Equal(newR) {
		t.Fatalf("blocked-branch: old=%v(%v) new=%v(%v)", oldR, oldErr, newR, newErr)
	}
	if !newR.Equal(roadnet.NewRoute(0, 2, 3, 4)) {
		t.Fatalf("blocked-branch route = %v", newR)
	}
	// A +Inf bound on the blocked branch keeps node 1 behind every finite
	// priority; the route and its cost stay Dijkstra's.
	lb := []float64{0, math.Inf(1), 0, 0, 0}
	bR, bC, bErr := AStarBounded(g, 0, 4, blockTop, 0, lb)
	_, wantC, _ := ShortestPath(g, 0, 4, blockTop, 0)
	if bErr != nil || !bR.Equal(newR) || bC != wantC {
		t.Fatalf("bounded blocked-branch: %v (%v, %v), want %v (%v)", bR, bC, bErr, newR, wantC)
	}
}

// TestBoundedSearchArgumentErrors: short per-node or per-edge slices and
// out-of-range nodes are errors, never panics.
func TestBoundedSearchArgumentErrors(t *testing.T) {
	g := diamond()
	n, m := g.NumNodes(), g.NumEdges()
	w := edgeBounds(g, DistanceCost)
	if err := DistancesTo(g, w, roadnet.NodeID(n), make([]float64, n)); !errors.Is(err, errNodeRange) {
		t.Errorf("dst out of range: %v", err)
	}
	if err := DistancesTo(g, w, -1, make([]float64, n)); !errors.Is(err, errNodeRange) {
		t.Errorf("negative dst: %v", err)
	}
	if err := DistancesTo(g, w, 0, make([]float64, n-1)); !errors.Is(err, errShortSlice) {
		t.Errorf("short dist: %v", err)
	}
	if err := DistancesTo(g, w[:m-1], 0, make([]float64, n)); !errors.Is(err, errShortSlice) {
		t.Errorf("short weights: %v", err)
	}
	if _, _, err := AStarBounded(g, 0, 4, DistanceCost, 0, make([]float64, n-1)); !errors.Is(err, errShortSlice) {
		t.Errorf("short bound: %v", err)
	}
	if _, _, err := AStarBounded(g, roadnet.NodeID(n), 4, DistanceCost, 0, make([]float64, n)); !errors.Is(err, errNodeRange) {
		t.Errorf("src out of range: %v", err)
	}
}

// TestTravelTimeCacheBitIdentical pins the memoised evaluator to
// TravelTimeCost.Cost bit for bit on every road class, with and without
// lights and at zero speed, over repeated, alternating, negative and
// beyond-one-week departure times.
func TestTravelTimeCacheBitIdentical(t *testing.T) {
	var edges []roadnet.Edge
	for _, c := range []roadnet.RoadClass{roadnet.Local, roadnet.Collector, roadnet.Arterial, roadnet.Highway} {
		for lights := 0; lights <= 2; lights++ {
			edges = append(edges, roadnet.Edge{Length: 137.5 + 91*float64(lights), Class: c, SpeedKmh: c.DefaultSpeedKmh(), Lights: lights})
		}
		edges = append(edges, roadnet.Edge{Length: 240, Class: c}) // zero speed: +Inf minutes
	}
	times := []SimTime{
		At(0, 8, 0), At(0, 8, 0), At(0, 17, 30), At(0, 8, 0), At(0, 17, 30), At(0, 17, 30),
		0, SimTime(math.Copysign(0, -1)), -0.25, -61.5, -MinutesPerDay - 479, -MinutesPerWeek, -3*MinutesPerWeek - 1030.125,
		MinutesPerWeek, MinutesPerWeek + 481.5, 5*MinutesPerWeek + 1049.75, 1e6 + 0.3,
	}
	rng := rand.New(rand.NewSource(8))
	for range 500 {
		tm := SimTime((rng.Float64()*5 - 2) * MinutesPerWeek)
		times = append(times, tm, tm)
	}
	var c TravelTimeCache
	check := func(e *roadnet.Edge, tm SimTime) {
		t.Helper()
		if got, want := c.Cost(e, tm), TravelTimeCost.Cost(e, tm); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("class %v lights %d speed %v at %v: cached %v, want %v", e.Class, e.Lights, e.SpeedKmh, float64(tm), got, want)
		}
	}
	for _, tm := range times { // every edge at one time, then the next time
		for i := range edges {
			check(&edges[i], tm)
		}
	}
	for i := range 4 * len(times) { // a different time on every call
		check(&edges[i%len(edges)], times[(i*7)%len(times)])
	}
}

// TestHeapMatchesContainerHeapOrder drains interleaved pushes and pops
// through the 4-ary value heap and a sorted model, verifying the pop
// sequence is the sorted order of the strict (prio, node) total order.
func TestHeapMatchesContainerHeapOrder(t *testing.T) {
	var h minHeap
	rng := rand.New(rand.NewSource(7))
	var model []heapEntry
	popMin := func() heapEntry {
		mi := 0
		for i := range model {
			if entryLess(model[i], model[mi]) {
				mi = i
			}
		}
		e := model[mi]
		model = append(model[:mi], model[mi+1:]...)
		return e
	}
	for round := 0; round < 200; round++ {
		for p := rng.Intn(8); p > 0; p-- {
			e := heapEntry{prio: float64(rng.Intn(50)), node: roadnet.NodeID(rng.Intn(1000))}
			h.push(e)
			model = append(model, e)
		}
		for p := rng.Intn(6); p > 0 && len(model) > 0; p-- {
			got, want := h.pop(), popMin()
			if got != want {
				t.Fatalf("round %d: pop %v, want %v", round, got, want)
			}
		}
	}
	for len(model) > 0 {
		got, want := h.pop(), popMin()
		if got != want {
			t.Fatalf("drain: pop %v, want %v", got, want)
		}
	}
	if len(h) != 0 {
		t.Fatalf("heap not drained: %d left", len(h))
	}
}

// TestRootCostsBrokenPrefix is the regression test for the prefixCost fix:
// the old helper silently priced a root with a missing edge as if the edge
// were free; rootCosts prices the missing hop, and every hop after it, at
// +Inf, so a root that is not a path never underprices a candidate.
func TestRootCostsBrokenPrefix(t *testing.T) {
	g := diamond()
	inf := math.Inf(1)
	// 0-1-3-4 is a real chain: costs accumulate.
	out := rootCosts(g, []roadnet.NodeID{0, 1, 3, 4}, DistanceCost, 0, nil)
	if len(out) != 4 {
		t.Fatalf("intact chain: len=%d", len(out))
	}
	if out[0] != 0 || out[1] <= 0 || out[2] <= out[1] || out[3] <= out[2] || out[3] == inf {
		t.Fatalf("intact chain costs not increasing: %v", out)
	}
	want := refPrefixCost(g, []roadnet.NodeID{0, 1, 3, 4}, DistanceCost, 0)
	if out[3] != want {
		t.Fatalf("prefix cost %v != reference %v", out[3], want)
	}
	// 0-3 has no direct edge: the old prefixCost returned 0 for the whole
	// prefix (underpricing any candidate built on it).
	out = rootCosts(g, []roadnet.NodeID{0, 3, 4}, DistanceCost, 0, nil)
	if len(out) != 3 || out[0] != 0 || out[1] != inf || out[2] != inf {
		t.Fatalf("broken chain out=%v, want [0 +Inf +Inf]", out)
	}
	// Broken mid-chain: 0-1 exists, 1-4 does not.
	out = rootCosts(g, []roadnet.NodeID{0, 1, 4}, DistanceCost, 0, nil)
	if len(out) != 3 || out[1] <= 0 || out[1] == inf || out[2] != inf {
		t.Fatalf("mid-broken chain out=%v, want [0 c +Inf] with c finite", out)
	}
}
