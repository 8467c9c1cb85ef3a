package traj

import (
	"math"
	"math/rand"
	"testing"

	"crowdplanner/internal/geo"
	"crowdplanner/internal/roadnet"
	"crowdplanner/internal/routing"
)

func testGraph() *roadnet.Graph {
	cfg := roadnet.DefaultGenConfig()
	cfg.Cols, cfg.Rows = 10, 10
	cfg.Seed = 99
	return roadnet.Generate(cfg)
}

func TestNewPopulationDeterministic(t *testing.T) {
	g := testGraph()
	cfg := DefaultPopulationConfig()
	cfg.NumDrivers = 50
	d1 := NewPopulation(g, cfg)
	d2 := NewPopulation(g, cfg)
	if len(d1) != 50 || len(d2) != 50 {
		t.Fatalf("lens = %d, %d", len(d1), len(d2))
	}
	for i := range d1 {
		if d1[i].Home != d2[i].Home || d1[i].Prefs != d2[i].Prefs {
			t.Fatalf("driver %d differs between runs", i)
		}
	}
	bbox := g.BBox()
	for _, d := range d1 {
		if !bbox.Contains(d.Home) {
			t.Errorf("driver home %v outside city bbox", d.Home)
		}
		if d.Radius <= 0 || d.TripNoise <= 0 {
			t.Errorf("driver %d has degenerate radius/noise", d.ID)
		}
	}
}

func TestNewPopulationArchetypesVary(t *testing.T) {
	g := testGraph()
	cfg := DefaultPopulationConfig()
	cfg.NumDrivers = 200
	drivers := NewPopulation(g, cfg)
	// At least two materially different preference profiles must exist.
	var minWT, maxWT = math.Inf(1), math.Inf(-1)
	for _, d := range drivers {
		minWT = math.Min(minWT, d.Prefs.WTime)
		maxWT = math.Max(maxWT, d.Prefs.WTime)
	}
	if maxWT-minWT < 0.2 {
		t.Errorf("population lacks preference diversity: WTime range [%v,%v]", minWT, maxWT)
	}
}

func TestPerceivedCostLatentFactors(t *testing.T) {
	g := testGraph()
	d := &Driver{
		Home:   g.Node(0).Pt,
		Radius: 1000,
		Prefs:  Preferences{WTime: 1, WLights: 2, WComfort: 1, WFamiliar: 0.5},
	}
	base := roadnet.Edge{From: 0, To: 1, Length: 500, Class: roadnet.Arterial, SpeedKmh: 60}
	lit := base
	lit.Lights = 1
	tm := routing.At(0, 10, 0)
	if d.PerceivedCost(g, &lit, tm) <= d.PerceivedCost(g, &base, tm) {
		t.Error("a traffic light should increase perceived cost")
	}
	local := base
	local.Class = roadnet.Local
	local.SpeedKmh = 60 // same speed: isolate comfort effect
	if d.PerceivedCost(g, &local, tm) <= d.PerceivedCost(g, &base, tm) {
		t.Error("local roads should feel costlier than arterials at equal speed")
	}
}

func TestRouteForNoiseFree(t *testing.T) {
	g := testGraph()
	drivers := NewPopulation(g, DefaultPopulationConfig())
	d := drivers[0]
	r1, err := d.RouteFor(g, 0, 55, routing.At(0, 9, 0), nil)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := d.RouteFor(g, 0, 55, routing.At(0, 9, 0), nil)
	if err != nil || !r1.Equal(r2) {
		t.Error("noise-free route should be deterministic")
	}
	if !r1.Valid(g) {
		t.Errorf("route %v invalid", r1)
	}
}

func TestRouteForNoiseVaries(t *testing.T) {
	g := testGraph()
	d := NewPopulation(g, DefaultPopulationConfig())[1]
	d.TripNoise = 0.5 // crank noise to force variation
	rng := rand.New(rand.NewSource(3))
	distinct := map[string]bool{}
	for i := 0; i < 20; i++ {
		r, err := d.RouteFor(g, 0, 87, routing.At(0, 9, 0), rng)
		if err != nil {
			t.Fatal(err)
		}
		distinct[r.String()] = true
	}
	if len(distinct) < 2 {
		t.Error("high trip noise should produce route variation")
	}
}

func TestTraceGeometryAndTimes(t *testing.T) {
	g := testGraph()
	d := NewPopulation(g, DefaultPopulationConfig())[0]
	r, err := d.RouteFor(g, 0, 44, routing.At(0, 9, 0), nil)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(4))
	tr := Trace(g, d, r, routing.At(0, 9, 0), DefaultGPSConfig(), rng)
	if len(tr.Samples) < 2 {
		t.Fatalf("too few samples: %d", len(tr.Samples))
	}
	// Timestamps must be non-decreasing and anchored at departure.
	if tr.Samples[0].T < routing.At(0, 9, 0) {
		t.Error("first sample before departure")
	}
	for i := 1; i < len(tr.Samples); i++ {
		if tr.Samples[i].T < tr.Samples[i-1].T {
			t.Error("timestamps must be non-decreasing")
		}
	}
	// Samples must hug the route geometry within a few sigma.
	pl := r.Polyline(g)
	for _, s := range tr.Samples {
		dist, _ := pl.DistTo(s.Pt)
		if dist > 6*DefaultGPSConfig().NoiseStdM {
			t.Errorf("sample %v is %f m from route", s.Pt, dist)
		}
	}
}

func TestTraceZeroLengthRoute(t *testing.T) {
	g := testGraph()
	d := NewPopulation(g, DefaultPopulationConfig())[0]
	r := roadnet.NewRoute(5)
	tr := Trace(g, d, r, 0, DefaultGPSConfig(), nil)
	if len(tr.Samples) != 1 {
		t.Errorf("samples = %d, want 1", len(tr.Samples))
	}
}

func TestMapMatchRecoversRoute(t *testing.T) {
	g := testGraph()
	d := NewPopulation(g, DefaultPopulationConfig())[0]
	rng := rand.New(rand.NewSource(9))
	ok, total := 0, 0
	for trial := 0; trial < 20; trial++ {
		src := roadnet.NodeID(rng.Intn(g.NumNodes()))
		dst := roadnet.NodeID(rng.Intn(g.NumNodes()))
		if src == dst {
			continue
		}
		r, err := d.RouteFor(g, src, dst, routing.At(0, 10, 0), nil)
		if err != nil || r.Empty() {
			continue
		}
		tr := Trace(g, d, r, routing.At(0, 10, 0), DefaultGPSConfig(), rng)
		matched, err := MapMatch(g, tr.Samples)
		if err != nil {
			continue
		}
		total++
		if matched.Similarity(r) > 0.9 {
			ok++
		}
	}
	if total == 0 {
		t.Fatal("no trials executed")
	}
	if float64(ok)/float64(total) < 0.8 {
		t.Errorf("map matching recovered only %d/%d routes", ok, total)
	}
}

func TestMapMatchEmpty(t *testing.T) {
	g := testGraph()
	if _, err := MapMatch(g, nil); err == nil {
		t.Error("empty samples should error")
	}
	// Single stationary sample collapses to one node -> no edges -> error.
	s := []Sample{{Pt: g.Node(3).Pt}}
	if _, err := MapMatch(g, s); err == nil {
		t.Error("single-node match should error")
	}
}

func TestRandomODs(t *testing.T) {
	g := testGraph()
	rng := rand.New(rand.NewSource(2))
	ods, shortfall := RandomODs(g, 30, 1000, rng)
	if len(ods) != 30 || shortfall != 0 {
		t.Fatalf("got %d ODs (shortfall %d)", len(ods), shortfall)
	}
	seen := map[OD]bool{}
	for _, od := range ods {
		if seen[od] {
			t.Error("duplicate OD")
		}
		seen[od] = true
		if nodeDist(g, od.From, od.To) < 1000 {
			t.Error("OD below min distance")
		}
	}
}

func TestGenerateDataset(t *testing.T) {
	g := testGraph()
	drivers := NewPopulation(g, PopulationConfig{NumDrivers: 40, Seed: 5, FracCommuter: 1})
	cfg := DatasetConfig{
		NumODs: 10, TripsPerOD: 8, ZipfSkew: 1, MinODDistM: 1000,
		PeakBias: 0.5, GPS: DefaultGPSConfig(), Seed: 6,
	}
	ds := GenerateDataset(g, drivers, cfg)
	if len(ds.Trips) < 40 {
		t.Fatalf("trips = %d, want >= 40", len(ds.Trips))
	}
	valid := 0
	for _, tr := range ds.Trips {
		if !tr.Route.Empty() && tr.Route.Valid(g) {
			valid++
		}
	}
	if float64(valid)/float64(len(ds.Trips)) < 0.95 {
		t.Errorf("only %d/%d trips have valid matched routes", valid, len(ds.Trips))
	}
	// Zipf skew: the most popular OD should have several times the trips of
	// the least popular.
	counts := map[OD]int{}
	for _, tr := range ds.Trips {
		if tr.Route.Empty() {
			continue
		}
		counts[OD{tr.Route.Source(), tr.Route.Dest()}]++
	}
	max, min := 0, 1<<30
	for _, c := range counts {
		if c > max {
			max = c
		}
		if c < min {
			min = c
		}
	}
	if max < 2*min {
		t.Errorf("expected Zipf skew: max=%d min=%d", max, min)
	}
}

func TestTripCounts(t *testing.T) {
	g := testGraph()
	drivers := NewPopulation(g, PopulationConfig{NumDrivers: 20, Seed: 5, FracCommuter: 1})
	ds := GenerateDataset(g, drivers, DatasetConfig{
		NumODs: 5, TripsPerOD: 6, MinODDistM: 800, GPS: DefaultGPSConfig(), Seed: 8,
	})
	if len(ds.Trips) == 0 {
		t.Fatal("no trips")
	}
	first := ds.Trips[0].Route
	got := ds.TripCounts(first.Source(), first.Dest(), 300)
	if len(got) == 0 {
		t.Error("TripCounts should count the generating trips")
	}
	for _, c := range got {
		if c.Trips <= 0 {
			t.Errorf("empty count %+v", c)
		}
		r := ds.Route(c.Route)
		if geo.Dist(g.Node(r.Source()).Pt, g.Node(first.Source()).Pt) > 300 {
			t.Error("counted trip outside radius")
		}
	}
}

func TestGroundTruthStable(t *testing.T) {
	g := testGraph()
	drivers := NewPopulation(g, DefaultPopulationConfig())
	ds := NewDataset(g, drivers, nil)
	r1, err := ds.GroundTruth(0, 77, routing.At(0, 8, 0), 50)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := ds.GroundTruth(0, 77, routing.At(0, 8, 0), 50)
	if err != nil || !r1.Equal(r2) {
		t.Error("ground truth should be deterministic")
	}
	if !r1.Valid(g) {
		t.Errorf("ground truth %v invalid", r1)
	}
	if r1.Source() != 0 || r1.Dest() != 77 {
		t.Errorf("ground truth endpoints wrong: %v", r1)
	}
}
