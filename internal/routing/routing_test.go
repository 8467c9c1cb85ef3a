package routing

import (
	"errors"
	"math"
	"math/rand"
	"sync"
	"testing"

	"crowdplanner/internal/geo"
	"crowdplanner/internal/roadnet"
)

// diamond builds:
//
//	    1
//	  /   \
//	0       3 --- 4
//	  \   /
//	    2
//
// with 0-1-3 shorter than 0-2-3.
func diamond() *roadnet.Graph {
	g := roadnet.NewGraph(5, 10)
	g.AddNode(geo.Point{X: 0, Y: 0})     // 0
	g.AddNode(geo.Point{X: 100, Y: 50})  // 1
	g.AddNode(geo.Point{X: 100, Y: -80}) // 2
	g.AddNode(geo.Point{X: 200, Y: 0})   // 3
	g.AddNode(geo.Point{X: 300, Y: 0})   // 4
	g.AddRoad(0, 1, roadnet.Local, 0, 0)
	g.AddRoad(1, 3, roadnet.Local, 0, 0)
	g.AddRoad(0, 2, roadnet.Local, 0, 0)
	g.AddRoad(2, 3, roadnet.Local, 0, 0)
	g.AddRoad(3, 4, roadnet.Local, 0, 0)
	return g
}

func TestSimTime(t *testing.T) {
	tm := At(1, 8, 30) // Tuesday 08:30
	if tm.Day() != 1 {
		t.Errorf("Day = %d", tm.Day())
	}
	if h := tm.HourOfDay(); math.Abs(h-8.5) > 1e-9 {
		t.Errorf("HourOfDay = %v", h)
	}
	if s := tm.String(); s != "Tue 08:30" {
		t.Errorf("String = %q", s)
	}
	if got := SimTime(-60).Normalize(); float64(got) != MinutesPerWeek-60 {
		t.Errorf("Normalize(-60) = %v", got)
	}
	if got := SimTime(MinutesPerWeek + 5).Normalize(); float64(got) != 5 {
		t.Errorf("Normalize(week+5) = %v", got)
	}
	if got := At(0, 12, 0).Slot(24); got != 12 {
		t.Errorf("Slot = %d", got)
	}
	if got := At(0, 12, 0).Slot(0); got != 0 {
		t.Errorf("Slot(0) = %d", got)
	}
	if got := At(0, 0, 10).Add(15); float64(got) != 25 {
		t.Errorf("Add = %v", got)
	}
}

func TestCongestionFactor(t *testing.T) {
	night := CongestionFactor(3, false)
	peak := CongestionFactor(8, false)
	if night >= peak {
		t.Errorf("night %v should be below peak %v", night, peak)
	}
	if night < 1 || night > 1.2 {
		t.Errorf("night factor = %v, want ~1", night)
	}
	majorPeak := CongestionFactor(8, true)
	if majorPeak <= peak {
		t.Error("major roads should congest more at peak")
	}
}

func TestShortestPathDistance(t *testing.T) {
	g := diamond()
	r, c, err := ShortestPath(g, 0, 4, DistanceCost, 0)
	if err != nil {
		t.Fatal(err)
	}
	want := roadnet.NewRoute(0, 1, 3, 4)
	if !r.Equal(want) {
		t.Errorf("route = %v, want %v", r, want)
	}
	if math.Abs(c-r.Length(g)) > 1e-9 {
		t.Errorf("cost %v != length %v", c, r.Length(g))
	}
}

func TestShortestPathSameNode(t *testing.T) {
	g := diamond()
	r, c, err := ShortestPath(g, 2, 2, DistanceCost, 0)
	if err != nil || c != 0 || len(r.Nodes) != 1 {
		t.Errorf("same-node: %v %v %v", r, c, err)
	}
}

func TestShortestPathNoRoute(t *testing.T) {
	g := roadnet.NewGraph(2, 0)
	g.AddNode(geo.Point{})
	g.AddNode(geo.Point{X: 100})
	_, _, err := ShortestPath(g, 0, 1, DistanceCost, 0)
	if !errors.Is(err, ErrNoRoute) {
		t.Errorf("err = %v, want ErrNoRoute", err)
	}
	_, _, err = ShortestPath(g, 0, 5, DistanceCost, 0)
	if err == nil {
		t.Error("out-of-range node should error")
	}
}

func TestAStarMatchesDijkstra(t *testing.T) {
	cfg := roadnet.DefaultGenConfig()
	cfg.Cols, cfg.Rows = 12, 12
	g := roadnet.Generate(cfg)
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 30; trial++ {
		src := roadnet.NodeID(rng.Intn(g.NumNodes()))
		dst := roadnet.NodeID(rng.Intn(g.NumNodes()))
		r1, c1, err1 := ShortestPath(g, src, dst, DistanceCost, 0)
		r2, c2, err2 := AStar(g, src, dst, DistanceCost, 0)
		if (err1 == nil) != (err2 == nil) {
			t.Fatalf("err mismatch: %v vs %v", err1, err2)
		}
		if err1 != nil {
			continue
		}
		if math.Abs(c1-c2) > 1e-6 {
			t.Fatalf("trial %d: dijkstra %v vs astar %v", trial, c1, c2)
		}
		if !r1.Equal(r2) {
			t.Fatalf("trial %d: dijkstra route %v vs astar route %v", trial, r1, r2)
		}
	}
}

func TestAStarFallsBackWithoutHeuristic(t *testing.T) {
	// CostFn carries no lower bound, so AStar degrades to plain Dijkstra.
	g := diamond()
	unbounded := CostFn(func(e *roadnet.Edge, _ SimTime) float64 { return e.Length })
	if b := unbounded.MinCostPerMeter(g); b != 0 {
		t.Fatalf("CostFn bound = %v, want 0", b)
	}
	r, _, err := AStar(g, 0, 4, unbounded, 0)
	if err != nil || !r.Equal(roadnet.NewRoute(0, 1, 3, 4)) {
		t.Errorf("fallback route = %v, err %v", r, err)
	}
}

func TestTravelTimeCostPrefersFastRoads(t *testing.T) {
	fast := &roadnet.Edge{Length: 1000, Class: roadnet.Highway, SpeedKmh: 100}
	slow := &roadnet.Edge{Length: 1000, Class: roadnet.Local, SpeedKmh: 40}
	tNight := At(0, 3, 0)
	if TravelTimeCost.Cost(fast, tNight) >= TravelTimeCost.Cost(slow, tNight) {
		t.Error("highway should be faster than local at night")
	}
	lit := &roadnet.Edge{Length: 1000, Class: roadnet.Local, SpeedKmh: 40, Lights: 2}
	if TravelTimeCost.Cost(lit, tNight) <= TravelTimeCost.Cost(slow, tNight) {
		t.Error("lights should add delay")
	}
}

func TestTravelMinutesPeakSlower(t *testing.T) {
	g := diamond()
	r, _, err := ShortestPath(g, 0, 4, DistanceCost, 0)
	if err != nil {
		t.Fatal(err)
	}
	night := TravelMinutes(g, r, At(0, 3, 0))
	peak := TravelMinutes(g, r, At(0, 8, 0))
	if night >= peak {
		t.Errorf("night %v should be below peak %v", night, peak)
	}
}

func TestKShortest(t *testing.T) {
	g := diamond()
	routes, costs, err := KShortest(g, 0, 4, 3, DistanceCost, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(routes) < 2 {
		t.Fatalf("got %d routes, want >= 2", len(routes))
	}
	if !routes[0].Equal(roadnet.NewRoute(0, 1, 3, 4)) {
		t.Errorf("first route = %v", routes[0])
	}
	if !routes[1].Equal(roadnet.NewRoute(0, 2, 3, 4)) {
		t.Errorf("second route = %v", routes[1])
	}
	for i := 1; i < len(costs); i++ {
		if costs[i] < costs[i-1]-1e-9 {
			t.Errorf("costs not non-decreasing: %v", costs)
		}
	}
	// All routes distinct and valid.
	seen := map[string]bool{}
	for _, r := range routes {
		if !r.Valid(g) {
			t.Errorf("invalid route %v", r)
		}
		k := r.String()
		if seen[k] {
			t.Errorf("duplicate route %v", r)
		}
		seen[k] = true
	}
}

func TestKShortestLoopless(t *testing.T) {
	cfg := roadnet.DefaultGenConfig()
	cfg.Cols, cfg.Rows = 8, 8
	g := roadnet.Generate(cfg)
	routes, _, err := KShortest(g, 0, roadnet.NodeID(g.NumNodes()-1), 5, DistanceCost, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range routes {
		visited := map[roadnet.NodeID]bool{}
		for _, n := range r.Nodes {
			if visited[n] {
				t.Fatalf("route %v revisits node %d", r, n)
			}
			visited[n] = true
		}
	}
}

func TestKShortestEdgeCases(t *testing.T) {
	g := diamond()
	routes, costs, err := KShortest(g, 0, 4, 0, DistanceCost, 0)
	if routes != nil || costs != nil || err != nil {
		t.Error("k=0 should be empty, no error")
	}
	// Unreachable.
	iso := roadnet.NewGraph(2, 0)
	iso.AddNode(geo.Point{})
	iso.AddNode(geo.Point{X: 1})
	if _, _, err := KShortest(iso, 0, 1, 3, DistanceCost, 0); !errors.Is(err, ErrNoRoute) {
		t.Errorf("err = %v", err)
	}
	// Asking for more routes than exist terminates.
	routes, _, err = KShortest(g, 0, 4, 100, DistanceCost, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(routes) > 20 {
		t.Errorf("suspiciously many routes: %d", len(routes))
	}
}

// TestKShortestParallelEdges pins Yen on graphs with parallel edges, where a
// hop's first u→v edge is not the only one and not always the cheapest. A
// spur must ban every edge of an accepted route's next hop, or it re-finds
// that route over a parallel edge and the routes behind it are never
// generated (graph A). A root hop must be priced on its cheapest edge, the
// one the search takes (graph B).
func TestKShortestParallelEdges(t *testing.T) {
	type want struct {
		route []roadnet.NodeID
		cost  float64
	}
	check := func(name string, g *roadnet.Graph, src, dst roadnet.NodeID, k int, wants []want) {
		t.Helper()
		p := Preprocess(g, DistanceCost, PrepConfig{Landmarks: 2, Active: 2})
		for _, tier := range []struct {
			name string
			run  func() ([]roadnet.Route, []float64, error)
		}{
			{"plain", func() ([]roadnet.Route, []float64, error) { return KShortest(g, src, dst, k, DistanceCost, 0) }},
			{"alt", func() ([]roadnet.Route, []float64, error) { return p.KShortest(src, dst, k, 0) }},
		} {
			routes, costs, err := tier.run()
			if err != nil {
				t.Fatalf("%s %s: %v", name, tier.name, err)
			}
			if len(routes) != len(wants) {
				t.Fatalf("%s %s: %d routes %v, want %d", name, tier.name, len(routes), routes, len(wants))
			}
			for i, w := range wants {
				if !routes[i].Equal(roadnet.NewRoute(w.route...)) || costs[i] != w.cost {
					t.Errorf("%s %s route %d = %v cost %v, want %v cost %v",
						name, tier.name, i, routes[i], costs[i], w.route, w.cost)
				}
			}
		}
	}

	// Graph A: two parallel 1→2 edges on the shortest route.
	a := roadnet.NewGraph(5, 7)
	a.AddNode(geo.Point{X: 0})          // 0
	a.AddNode(geo.Point{X: 900})        // 1
	a.AddNode(geo.Point{X: 1800})       // 2
	a.AddNode(geo.Point{X: 1800, Y: 5}) // 3
	a.AddNode(geo.Point{X: 2700})       // 4
	a.AddEdge(0, 1, roadnet.Local, 0, 0, 1000)
	a.AddEdge(1, 2, roadnet.Local, 0, 0, 1000)
	a.AddEdge(1, 2, roadnet.Local, 0, 0, 1000)
	a.AddEdge(1, 3, roadnet.Local, 0, 0, 1001)
	a.AddEdge(2, 4, roadnet.Local, 0, 0, 1000)
	a.AddEdge(3, 4, roadnet.Local, 0, 0, 1000)
	a.AddEdge(3, 2, roadnet.Local, 0, 0, 10)
	check("A", a, 0, 4, 3, []want{
		{[]roadnet.NodeID{0, 1, 2, 4}, 3000},
		{[]roadnet.NodeID{0, 1, 3, 4}, 3001},
		{[]roadnet.NodeID{0, 1, 3, 2, 4}, 3011},
	})

	// Graph B: the first 0→1 edge is ten times longer than its parallel.
	b := roadnet.NewGraph(4, 5)
	b.AddNode(geo.Point{X: 0})   // 0
	b.AddNode(geo.Point{X: 100}) // 1
	b.AddNode(geo.Point{X: 400}) // 2
	b.AddNode(geo.Point{X: 800}) // 3
	b.AddEdge(0, 1, roadnet.Local, 0, 0, 1000)
	b.AddEdge(0, 1, roadnet.Local, 0, 0, 100)
	b.AddEdge(1, 3, roadnet.Local, 0, 0, 1000)
	b.AddEdge(1, 2, roadnet.Local, 0, 0, 400)
	b.AddEdge(2, 3, roadnet.Local, 0, 0, 500)
	check("B", b, 0, 3, 2, []want{
		{[]roadnet.NodeID{0, 1, 2, 3}, 1000},
		{[]roadnet.NodeID{0, 1, 3}, 1100},
	})
}

func TestShortestPathDeterministic(t *testing.T) {
	cfg := roadnet.DefaultGenConfig()
	cfg.Cols, cfg.Rows = 10, 10
	g := roadnet.Generate(cfg)
	r1, _, err := ShortestPath(g, 3, 97, TravelTimeCost, At(0, 8, 0))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		r2, _, err := ShortestPath(g, 3, 97, TravelTimeCost, At(0, 8, 0))
		if err != nil || !r1.Equal(r2) {
			t.Fatalf("non-deterministic result: %v vs %v (%v)", r1, r2, err)
		}
	}
}

func TestFastestDiffersFromShortestSomewhere(t *testing.T) {
	cfg := roadnet.DefaultGenConfig()
	g := roadnet.Generate(cfg)
	rng := rand.New(rand.NewSource(11))
	diff := 0
	for trial := 0; trial < 40; trial++ {
		src := roadnet.NodeID(rng.Intn(g.NumNodes()))
		dst := roadnet.NodeID(rng.Intn(g.NumNodes()))
		rs, _, err1 := ShortestPath(g, src, dst, DistanceCost, At(0, 8, 0))
		rf, _, err2 := ShortestPath(g, src, dst, TravelTimeCost, At(0, 8, 0))
		if err1 != nil || err2 != nil {
			continue
		}
		if !rs.Equal(rf) {
			diff++
		}
	}
	if diff == 0 {
		t.Error("expected fastest and shortest to differ for some OD pairs")
	}
}

// TestConcurrentSearchesAreIndependent is the regression test for the
// parallel candidate fan-out in core: ShortestPath and KShortest run
// concurrently over one shared graph (they keep all search state on the
// stack/heap of the call), so simultaneous searches must neither race nor
// perturb each other's results.
func TestConcurrentSearchesAreIndependent(t *testing.T) {
	cfg := roadnet.DefaultGenConfig()
	cfg.Cols, cfg.Rows = 10, 10
	g := roadnet.Generate(cfg)
	type result struct {
		sp roadnet.Route
		ks []roadnet.Route
	}
	serial := func(src, dst roadnet.NodeID) result {
		// Unreachable pairs yield a zero result; determinism still makes
		// the concurrent run match the serial baseline exactly.
		sp, _, err := ShortestPath(g, src, dst, TravelTimeCost, At(0, 8, 0))
		if err != nil {
			return result{}
		}
		ks, _, err := KShortest(g, src, dst, 3, TravelTimeCost, At(0, 8, 0))
		if err != nil {
			return result{sp: sp}
		}
		return result{sp, ks}
	}
	type od struct{ src, dst roadnet.NodeID }
	ods := []od{{0, 99}, {9, 90}, {5, 77}, {33, 66}, {12, 88}, {40, 59}, {7, 93}, {21, 84}}
	want := make([]result, len(ods))
	for i, o := range ods {
		want[i] = serial(o.src, o.dst)
	}

	var wg sync.WaitGroup
	for rep := 0; rep < 8; rep++ {
		for i, o := range ods {
			wg.Add(1)
			go func(i int, o od) {
				defer wg.Done()
				got := serial(o.src, o.dst)
				if !got.sp.Equal(want[i].sp) {
					t.Errorf("OD %v: concurrent ShortestPath diverged", o)
				}
				if len(got.ks) != len(want[i].ks) {
					t.Errorf("OD %v: concurrent KShortest count diverged", o)
					return
				}
				for k := range got.ks {
					if !got.ks[k].Equal(want[i].ks[k]) {
						t.Errorf("OD %v: concurrent KShortest route %d diverged", o, k)
					}
				}
			}(i, o)
		}
	}
	wg.Wait()
}
