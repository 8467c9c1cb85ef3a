package traj

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sort"
	"sync"
	"testing"

	"crowdplanner/internal/geo"
	"crowdplanner/internal/roadnet"
	"crowdplanner/internal/routing"
)

// ---- reference poll: sequential, straight-line bound, string-keyed tally ----

// refRouteFor is the noise-free preferred-route search before the
// destination bound: A* under PerceivedCost with the straight-line bound
// only.
func refRouteFor(d *Driver, g *roadnet.Graph, src, dst roadnet.NodeID, t routing.SimTime) (roadnet.Route, error) {
	cost := routing.BoundedCostFn(func(e *roadnet.Edge, tm routing.SimTime) float64 {
		return d.PerceivedCost(g, e, tm)
	}, d.minCostPerMeter(g))
	r, _, err := routing.AStar(g, src, dst, cost, t)
	return r, err
}

// sampleByID is the reference subsample: the k drivers with the smallest ID
// hashes.
func sampleByID(drivers []*Driver, k int) []*Driver {
	type scored struct {
		h uint64
		d *Driver
	}
	all := make([]scored, len(drivers))
	for i, d := range drivers {
		z := uint64(d.ID) + 0x9E3779B97F4A7C15
		z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
		z = (z ^ (z >> 27)) * 0x94D049BB133111EB
		all[i] = scored{h: z ^ (z >> 31), d: d}
	}
	sort.Slice(all, func(a, b int) bool {
		if all[a].h != all[b].h {
			return all[a].h < all[b].h
		}
		return all[a].d.ID < all[b].d.ID
	})
	out := make([]*Driver, k)
	for i := range out {
		out[i] = all[i].d
	}
	return out
}

// refGroundTruth is the reference poll: one driver after another, votes
// keyed by Route.String(), ties to the smallest key.
func refGroundTruth(ds *Dataset, from, to roadnet.NodeID, t routing.SimTime, sampleDrivers int) (roadnet.Route, error) {
	drivers := ds.Drivers
	if sampleDrivers > 0 && sampleDrivers < len(drivers) {
		drivers = sampleByID(drivers, sampleDrivers)
	}
	type bucket struct {
		route roadnet.Route
		votes int
	}
	counts := map[string]*bucket{}
	for _, d := range drivers {
		r, err := refRouteFor(d, ds.Graph, from, to, t)
		if err != nil {
			continue
		}
		k := r.String()
		if b, ok := counts[k]; ok {
			b.votes++
		} else {
			counts[k] = &bucket{route: r, votes: 1}
		}
	}
	if len(counts) == 0 {
		return roadnet.Route{}, routing.ErrNoRoute
	}
	keys := make([]string, 0, len(counts))
	for k := range counts {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	best := counts[keys[0]]
	for _, k := range keys[1:] {
		if counts[k].votes > best.votes {
			best = counts[k]
		}
	}
	return best.route, nil
}

// ---- worlds ----

// world generates the small or the default scenario's city, population and
// corpus (core.SmallScenarioConfig / core.DefaultScenarioConfig).
func world(small bool) *Dataset {
	city, pop, data := roadnet.DefaultGenConfig(), DefaultPopulationConfig(), DefaultDatasetConfig()
	if small {
		city.Cols, city.Rows = 10, 10
		pop.NumDrivers = 80
		data.NumODs, data.TripsPerOD = 15, 12
	}
	g := roadnet.Generate(city)
	return GenerateDataset(g, NewPopulation(g, pop), data)
}

// pollODs draws n uniform ODs with departures across the whole week: a
// third near the morning peak, a third near the evening peak, a third at
// any time of day.
func pollODs(g *roadnet.Graph, n int, seed int64) []struct {
	from, to roadnet.NodeID
	t        routing.SimTime
} {
	rng := rand.New(rand.NewSource(seed))
	out := make([]struct {
		from, to roadnet.NodeID
		t        routing.SimTime
	}, n)
	for i := range out {
		o := &out[i]
		o.from = roadnet.NodeID(rng.Intn(g.NumNodes()))
		o.to = roadnet.NodeID(rng.Intn(g.NumNodes()))
		h := rng.Float64() * 24
		switch i % 3 {
		case 0:
			h = 8 + rng.NormFloat64()*0.75
		case 1:
			h = 17.5 + rng.NormFloat64()*0.75
		}
		o.t = routing.At(rng.Intn(7), 0, 0).Add(h * 60)
	}
	return out
}

// checkPoll compares GroundTruth with the reference on n ODs, polling
// samples of 60, 40 and every driver (0) for each.
func checkPoll(t *testing.T, ds *Dataset, n int, seed int64) {
	t.Helper()
	for _, od := range pollODs(ds.Graph, n, seed) {
		for _, k := range []int{60, 40, 0} {
			want, werr := refGroundTruth(ds, od.from, od.to, od.t, k)
			got, gerr := ds.GroundTruth(od.from, od.to, od.t, k)
			if (werr != nil) != (gerr != nil) || !got.Equal(want) {
				t.Fatalf("OD %d→%d at %v, sample %d: got %v (%v), reference %v (%v)",
					od.from, od.to, od.t, k, got, gerr, want, werr)
			}
		}
	}
}

// pollODCount keeps the equivalence sweeps at 500+ ODs per world, and at
// 60 under the race detector's slowdown.
func pollODCount() int {
	if raceEnabled {
		return 60
	}
	return 510
}

// TestGroundTruthMatchesReference pins the bounded, parallel poll to the
// sequential straight-line reference route for route on both scenario
// worlds.
func TestGroundTruthMatchesReference(t *testing.T) {
	for _, small := range []bool{true, false} {
		t.Run(fmt.Sprintf("small=%v", small), func(t *testing.T) {
			t.Parallel()
			checkPoll(t, world(small), pollODCount(), 5)
		})
	}
}

// TestGroundTruthZeroWeights: drivers with a zero time, distance or light
// weight (or all three) skip that bound term instead of turning 0·(+Inf)
// into NaN, and still poll the reference's routes.
func TestGroundTruthZeroWeights(t *testing.T) {
	g := testGraph()
	drivers := NewPopulation(g, DefaultPopulationConfig())
	for i, d := range drivers {
		switch i % 4 {
		case 0:
			d.Prefs.WTime = 0
		case 1:
			d.Prefs.WDist = 0
		case 2:
			d.Prefs.WLights = 0
		default:
			d.Prefs.WTime, d.Prefs.WDist, d.Prefs.WLights = 0, 0, 0
		}
	}
	checkPoll(t, NewDataset(g, drivers, nil), pollODCount()/3, 9)
}

// TestGroundTruthInfiniteBound: a zero-speed edge has infinite free-flow
// time, so every node whose routes all cross it gets a +Inf time bound.
// The poll must still match the reference, from, to and around such nodes,
// for drivers with and without a time weight.
func TestGroundTruthInfiniteBound(t *testing.T) {
	// Jittered positions keep the edge lengths distinct: on an exact grid,
	// mirror-image routes tie and either is optimal.
	rng := rand.New(rand.NewSource(3))
	g := roadnet.NewGraph(20, 64)
	const side = 4
	for y := 0; y < side; y++ {
		for x := 0; x < side; x++ {
			g.AddNode(geo.Point{X: float64(x)*300 + rng.Float64()*60, Y: float64(y)*300 + rng.Float64()*60})
		}
	}
	for y := 0; y < side; y++ {
		for x := 0; x < side; x++ {
			v := roadnet.NodeID(y*side + x)
			class := roadnet.Local
			if y == 1 {
				class = roadnet.Arterial
			}
			if x+1 < side {
				g.AddRoad(v, v+1, class, 0, (x+y)%2)
			}
			if y+1 < side {
				g.AddRoad(v, v+side, roadnet.Collector, 0, 0)
			}
		}
	}
	// A dead end whose only way out is a zero-speed edge, and one zero-speed
	// direction inside the grid.
	dead := g.AddNode(geo.Point{X: 450, Y: 450})
	g.AddEdge(5, dead, roadnet.Local, 0, 0, 0)
	g.Edge(g.AddEdge(dead, 10, roadnet.Arterial, 0, 1, 0)).SpeedKmh = 0
	up, _ := g.FindEdge(2, 6)
	g.Edge(up).SpeedKmh = 0

	cfg := DefaultPopulationConfig()
	cfg.NumDrivers = 40
	drivers := NewPopulation(g, cfg)
	for i := 0; i < len(drivers); i += 3 {
		drivers[i].Prefs.WTime = 0
	}
	ds := NewDataset(g, drivers, nil)
	b, err := ds.weights.to(g, 10)
	if err != nil {
		t.Fatal(err)
	}
	if !math.IsInf(b[0][dead], 1) || math.IsInf(b[1][dead], 1) {
		t.Fatalf("dead end bound: time %v, length %v; want +Inf and finite", b[0][dead], b[1][dead])
	}
	h := make([]float64, g.NumNodes())
	for _, d := range drivers {
		d.fillBound(b, h)
		for v, x := range h {
			if math.IsNaN(x) {
				t.Fatalf("driver %d: NaN bound at node %d", d.ID, v)
			}
		}
		if math.IsInf(h[dead], 1) != (d.Prefs.WTime > 0) {
			t.Fatalf("driver %d (WTime %v): dead-end bound %v", d.ID, d.Prefs.WTime, h[dead])
		}
	}
	for _, k := range []int{0, 25} {
		for from := 0; from < g.NumNodes(); from++ {
			for to := 0; to < g.NumNodes(); to++ {
				f, d := roadnet.NodeID(from), roadnet.NodeID(to)
				tm := routing.At(from%7, 7+to%12, 30)
				want, werr := refGroundTruth(ds, f, d, tm, k)
				got, gerr := ds.GroundTruth(f, d, tm, k)
				if (werr != nil) != (gerr != nil) || !got.Equal(want) {
					t.Fatalf("OD %d→%d, sample %d: got %v (%v), reference %v (%v)", f, d, k, got, gerr, want, werr)
				}
			}
		}
	}
}

// TestDestinationBoundConsistent checks the bound's algebra directly: for
// every driver it is zero at the destination and never drops by more than
// the driver's perceived cost across an edge, at night (congestion near 1,
// where the bound is tightest) and at both peaks.
func TestDestinationBoundConsistent(t *testing.T) {
	g := testGraph()
	drivers := NewPopulation(g, DefaultPopulationConfig())
	ds := NewDataset(g, drivers, nil)
	h := make([]float64, g.NumNodes())
	for _, dst := range []roadnet.NodeID{0, 44, 87} {
		b, err := ds.weights.to(g, dst)
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range drivers {
			d.fillBound(b, h)
			if h[dst] != 0 {
				t.Fatalf("driver %d: bound %v at the destination", d.ID, h[dst])
			}
			for _, tm := range []routing.SimTime{routing.At(2, 3, 0), routing.At(2, 8, 0), routing.At(2, 17, 30)} {
				for i := 0; i < g.NumEdges(); i++ {
					e := g.Edge(roadnet.EdgeID(i))
					c := d.PerceivedCost(g, e, tm)
					if h[e.From] > c+h[e.To]+1e-9*math.Max(1, h[e.From]) {
						t.Fatalf("driver %d, dst %d, edge %d→%d at %v: h %v > cost %v + h %v",
							d.ID, dst, e.From, e.To, tm, h[e.From], c, h[e.To])
					}
				}
			}
		}
	}
}

// TestGroundTruthConcurrentCallers: polls fanned out over four procs, from
// four callers at once, return the sequential reference's routes. Run it
// under -race.
func TestGroundTruthConcurrentCallers(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	ds := world(true)
	ods := pollODs(ds.Graph, 24, 11)
	want := make([]roadnet.Route, len(ods))
	for i, od := range ods {
		want[i], _ = refGroundTruth(ds, od.from, od.to, od.t, 40)
	}
	var wg sync.WaitGroup
	for c := range 4 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range ods {
				od := ods[(i+c*6)%len(ods)]
				got, _ := ds.GroundTruth(od.from, od.to, od.t, 40)
				if w := want[(i+c*6)%len(ods)]; !got.Equal(w) {
					t.Errorf("caller %d, OD %d→%d: got %v, want %v", c, od.from, od.to, got, w)
				}
			}
		}()
	}
	wg.Wait()
}

// TestGroundTruthOutOfRange: nodes outside the graph find no route, as they
// did before the shared bound.
func TestGroundTruthOutOfRange(t *testing.T) {
	g := testGraph()
	ds := NewDataset(g, NewPopulation(g, DefaultPopulationConfig()), nil)
	n := roadnet.NodeID(g.NumNodes())
	for _, od := range [][2]roadnet.NodeID{{0, n}, {n, 0}, {-1, 5}, {5, -1}} {
		if _, err := ds.GroundTruth(od[0], od[1], routing.At(0, 8, 0), 40); err == nil {
			t.Errorf("OD %v: want an error", od)
		}
		if _, err := ds.Drivers[0].RouteFor(g, od[0], od[1], routing.At(0, 8, 0), nil); err == nil {
			t.Errorf("RouteFor %v: want an error", od)
		}
	}
}

// ---- corpus golden digest ----

// corpusDigest hashes every trip's driver, departure and route nodes.
func corpusDigest(ds *Dataset) string {
	h := sha256.New()
	var buf [8]byte
	for _, tr := range ds.Trips {
		binary.LittleEndian.PutUint32(buf[:4], uint32(tr.Driver))
		h.Write(buf[:4])
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(float64(tr.Depart)))
		h.Write(buf[:])
		binary.LittleEndian.PutUint32(buf[:4], uint32(len(tr.Route.Nodes)))
		h.Write(buf[:4])
		for _, n := range tr.Route.Nodes {
			binary.LittleEndian.PutUint32(buf[:4], uint32(n))
			h.Write(buf[:4])
		}
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}

// TestCorpusGolden pins the small and default corpora to digests taken
// before the travel-time cache and the GPS drop: the noisy searches must
// draw the same noise in the same order and find the same routes. The
// matched trips no longer carry their GPS fixes.
func TestCorpusGolden(t *testing.T) {
	want := map[bool]struct {
		trips  int
		digest string
	}{
		true:  {180, "8b5d1d4d99aba625f73e988d7e0168c5a55c31aa81715686fbba854752f56a79"},
		false: {1500, "ccabe0665462af43ba470d17029e8293450f1b3ad0c47ffd12d710dad93c4059"},
	}
	for _, small := range []bool{true, false} {
		ds := world(small)
		if got := corpusDigest(ds); len(ds.Trips) != want[small].trips || got != want[small].digest {
			t.Errorf("small=%v: %d trips, digest %s; want %d, %s", small, len(ds.Trips), got, want[small].trips, want[small].digest)
		}
		for i, tr := range ds.Trips {
			if tr.Samples != nil {
				t.Fatalf("small=%v: trip %d kept %d GPS fixes after matching", small, i, len(tr.Samples))
			}
		}
	}
}

// BenchmarkGroundTruth times one poll of 60 drivers on the default world
// for cold-crowd-style requests: uniform ODs, departures across the week.
func BenchmarkGroundTruth(b *testing.B) {
	ds := world(false)
	ods := pollODs(ds.Graph, 512, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		od := ods[i%len(ods)]
		_, _ = ds.GroundTruth(od.from, od.to, od.t, 60)
	}
}
