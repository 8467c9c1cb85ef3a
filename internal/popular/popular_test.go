package popular

import (
	"errors"
	"math"
	"testing"

	"crowdplanner/internal/geo"
	"crowdplanner/internal/roadnet"
	"crowdplanner/internal/routing"
	"crowdplanner/internal/traj"
)

// gridGraph builds a small 2-row ladder:
//
//	3 - 4 - 5
//	|   |   |
//	0 - 1 - 2
func ladder() *roadnet.Graph {
	g := roadnet.NewGraph(6, 14)
	g.AddNode(geo.Point{X: 0, Y: 0})
	g.AddNode(geo.Point{X: 100, Y: 0})
	g.AddNode(geo.Point{X: 200, Y: 0})
	g.AddNode(geo.Point{X: 0, Y: 100})
	g.AddNode(geo.Point{X: 100, Y: 100})
	g.AddNode(geo.Point{X: 200, Y: 100})
	g.AddRoad(0, 1, roadnet.Local, 0, 0)
	g.AddRoad(1, 2, roadnet.Local, 0, 0)
	g.AddRoad(3, 4, roadnet.Local, 0, 0)
	g.AddRoad(4, 5, roadnet.Local, 0, 0)
	g.AddRoad(0, 3, roadnet.Local, 0, 0)
	g.AddRoad(1, 4, roadnet.Local, 0, 0)
	g.AddRoad(2, 5, roadnet.Local, 0, 0)
	return g
}

// mkTrip builds a trajectory with only the fields miners read.
func mkTrip(driver traj.DriverID, depart routing.SimTime, nodes ...roadnet.NodeID) traj.Trajectory {
	return traj.Trajectory{Driver: driver, Depart: depart, Route: roadnet.NewRoute(nodes...)}
}

func ladderDataset(trips ...traj.Trajectory) *traj.Dataset {
	return traj.NewDataset(ladder(), nil, trips)
}

func TestMPRFollowsDominantFlow(t *testing.T) {
	morning := routing.At(0, 9, 0)
	// 8 trips take the bottom corridor 0→1→2→5, 2 take the top 0→3→4→5.
	var trips []traj.Trajectory
	for i := 0; i < 8; i++ {
		trips = append(trips, mkTrip(traj.DriverID(i), morning, 0, 1, 2, 5))
	}
	for i := 8; i < 10; i++ {
		trips = append(trips, mkTrip(traj.DriverID(i), morning, 0, 3, 4, 5))
	}
	ds := ladderDataset(trips...)
	r, support, err := NewMPR().Mine(ds, 0, 5, morning)
	if err != nil {
		t.Fatal(err)
	}
	if !r.Equal(roadnet.NewRoute(0, 1, 2, 5)) {
		t.Errorf("route = %v, want bottom corridor", r)
	}
	if support <= 0 || support > 1 {
		t.Errorf("support = %v, want in (0,1]", support)
	}
}

func TestMPRPopularityIsProbabilityProduct(t *testing.T) {
	morning := routing.At(0, 9, 0)
	// All flow deterministic except the first hop: 3 of 4 trips go 0→1.
	trips := []traj.Trajectory{
		mkTrip(0, morning, 0, 1, 2),
		mkTrip(1, morning, 0, 1, 2),
		mkTrip(2, morning, 0, 1, 2),
		mkTrip(3, morning, 0, 3),
	}
	ds := ladderDataset(trips...)
	_, support, err := NewMPR().Mine(ds, 0, 2, morning)
	if err != nil {
		t.Fatal(err)
	}
	// P(0→1)=3/4, P(1→2)=1 → popularity 0.75.
	if math.Abs(support-0.75) > 1e-9 {
		t.Errorf("support = %v, want 0.75", support)
	}
}

func TestMPRNotEnoughData(t *testing.T) {
	ds := ladderDataset(mkTrip(0, 0, 0, 1))
	_, _, err := NewMPR().Mine(ds, 0, 5, 0)
	if !errors.Is(err, ErrNotEnoughData) {
		t.Errorf("err = %v, want ErrNotEnoughData", err)
	}
	// Unreachable destination within the transfer network.
	ds2 := ladderDataset(
		mkTrip(0, 0, 0, 1, 2),
		mkTrip(1, 0, 0, 1, 2),
	)
	_, _, err = NewMPR().Mine(ds2, 0, 3, 0)
	if !errors.Is(err, ErrNotEnoughData) {
		t.Errorf("err = %v, want ErrNotEnoughData", err)
	}
	// Out-of-range node is a distinct error.
	_, _, err = NewMPR().Mine(ds2, 0, 99, 0)
	if err == nil || errors.Is(err, ErrNotEnoughData) {
		t.Errorf("out-of-range err = %v", err)
	}
}

func TestMFPUsesTimeWindow(t *testing.T) {
	morning := routing.At(0, 8, 0)
	evening := routing.At(0, 20, 0)
	var trips []traj.Trajectory
	// Mornings use the bottom corridor.
	for i := 0; i < 5; i++ {
		trips = append(trips, mkTrip(traj.DriverID(i), morning, 0, 1, 2, 5))
	}
	// Evenings use the top corridor.
	for i := 5; i < 10; i++ {
		trips = append(trips, mkTrip(traj.DriverID(i), evening, 0, 3, 4, 5))
	}
	ds := ladderDataset(trips...)
	m := NewMFP()

	r, support, err := m.Mine(ds, 0, 5, morning)
	if err != nil {
		t.Fatal(err)
	}
	if !r.Equal(roadnet.NewRoute(0, 1, 2, 5)) {
		t.Errorf("morning route = %v", r)
	}
	if support != 5 {
		t.Errorf("morning bottleneck = %v, want 5", support)
	}

	r, _, err = m.Mine(ds, 0, 5, evening)
	if err != nil {
		t.Fatal(err)
	}
	if !r.Equal(roadnet.NewRoute(0, 3, 4, 5)) {
		t.Errorf("evening route = %v", r)
	}
}

func TestMFPBottleneckSemantics(t *testing.T) {
	tm := routing.At(0, 12, 0)
	// Corridor A (0→1→2→5): frequencies 10, 10, 2  → bottleneck 2.
	// Corridor B (0→3→4→5): frequencies 4, 4, 4    → bottleneck 4.
	var trips []traj.Trajectory
	id := 0
	addN := func(n int, nodes ...roadnet.NodeID) {
		for i := 0; i < n; i++ {
			trips = append(trips, mkTrip(traj.DriverID(id), tm, nodes...))
			id++
		}
	}
	addN(8, 0, 1, 2) // boost A's first two hops without reaching 5
	addN(2, 0, 1, 2, 5)
	addN(4, 0, 3, 4, 5)
	ds := ladderDataset(trips...)
	r, support, err := NewMFP().Mine(ds, 0, 5, tm)
	if err != nil {
		t.Fatal(err)
	}
	if !r.Equal(roadnet.NewRoute(0, 3, 4, 5)) {
		t.Errorf("route = %v, want widest corridor B", r)
	}
	if support != 4 {
		t.Errorf("bottleneck = %v, want 4", support)
	}
}

func TestMFPShortestTieBreak(t *testing.T) {
	tm := routing.At(0, 12, 0)
	// Both corridors have bottleneck 3, but a direct detour adds length:
	// 0→1→2→5 (400m) vs 0→3→4→5 (500m: includes vertical hop first).
	var trips []traj.Trajectory
	for i := 0; i < 3; i++ {
		trips = append(trips, mkTrip(traj.DriverID(i), tm, 0, 1, 2, 5))
		trips = append(trips, mkTrip(traj.DriverID(i+10), tm, 0, 3, 4, 5))
	}
	ds := ladderDataset(trips...)
	r, _, err := NewMFP().Mine(ds, 0, 5, tm)
	if err != nil {
		t.Fatal(err)
	}
	// Bottom corridor: 100+100+100(vertical 2→5) = 300; top: 100(vertical)
	// +100+100 = 300. Equal length; either is acceptable, but the result
	// must be deterministic across runs.
	r2, _, err := NewMFP().Mine(ds, 0, 5, tm)
	if err != nil || !r.Equal(r2) {
		t.Errorf("MFP not deterministic: %v vs %v", r, r2)
	}
}

func TestMFPNotEnoughData(t *testing.T) {
	ds := ladderDataset()
	if _, _, err := NewMFP().Mine(ds, 0, 5, 0); !errors.Is(err, ErrNotEnoughData) {
		t.Errorf("empty corpus err = %v", err)
	}
	// One lone trip is below MinBottleneck=2.
	ds = ladderDataset(mkTrip(0, 0, 0, 1, 2, 5))
	if _, _, err := NewMFP().Mine(ds, 0, 5, 0); !errors.Is(err, ErrNotEnoughData) {
		t.Errorf("sparse corpus err = %v", err)
	}
}

func TestLDRExpertVoting(t *testing.T) {
	tm := routing.At(0, 9, 0)
	var trips []traj.Trajectory
	// Driver 1 is an expert (3 trips) preferring the top corridor.
	for i := 0; i < 3; i++ {
		trips = append(trips, mkTrip(1, tm, 0, 3, 4, 5))
	}
	// Driver 2 is an expert (2 trips) preferring the top corridor too.
	for i := 0; i < 2; i++ {
		trips = append(trips, mkTrip(2, tm, 0, 3, 4, 5))
	}
	// Five one-off drivers each took the bottom corridor once: more raw
	// trips, but no single driver qualifies as an expert.
	for d := traj.DriverID(10); d < 15; d++ {
		trips = append(trips, mkTrip(d, tm, 0, 1, 2, 5))
	}
	ds := ladderDataset(trips...)
	r, support, err := NewLDR().Mine(ds, 0, 5, tm)
	if err != nil {
		t.Fatal(err)
	}
	if !r.Equal(roadnet.NewRoute(0, 3, 4, 5)) {
		t.Errorf("route = %v, want expert-preferred top corridor", r)
	}
	if support != 1 { // both experts voted for it
		t.Errorf("support = %v, want 1", support)
	}
}

func TestLDRFallbackToTripMode(t *testing.T) {
	tm := routing.At(0, 9, 0)
	// No expert drivers: everyone travelled once.
	trips := []traj.Trajectory{
		mkTrip(1, tm, 0, 1, 2, 5),
		mkTrip(2, tm, 0, 1, 2, 5),
		mkTrip(3, tm, 0, 3, 4, 5),
	}
	ds := ladderDataset(trips...)
	r, support, err := NewLDR().Mine(ds, 0, 5, tm)
	if err != nil {
		t.Fatal(err)
	}
	if !r.Equal(roadnet.NewRoute(0, 1, 2, 5)) {
		t.Errorf("route = %v, want trip mode", r)
	}
	if math.Abs(support-2.0/3.0) > 1e-9 {
		t.Errorf("support = %v, want 2/3", support)
	}
}

func TestLDRMatchRadius(t *testing.T) {
	tm := routing.At(0, 9, 0)
	// Trips start at node 3 (100 m from node 0 vertically).
	trips := []traj.Trajectory{
		mkTrip(1, tm, 3, 4, 5),
		mkTrip(2, tm, 3, 4, 5),
	}
	ds := ladderDataset(trips...)
	m := NewLDR()
	m.MatchRadius = 150
	if _, _, err := m.Mine(ds, 0, 5, tm); err != nil {
		t.Errorf("within radius should match: %v", err)
	}
	m.MatchRadius = 50
	if _, _, err := m.Mine(ds, 0, 5, tm); !errors.Is(err, ErrNotEnoughData) {
		t.Errorf("outside radius err = %v", err)
	}
}

func TestLDRNotEnoughData(t *testing.T) {
	ds := ladderDataset()
	if _, _, err := NewLDR().Mine(ds, 0, 5, 0); !errors.Is(err, ErrNotEnoughData) {
		t.Errorf("err = %v", err)
	}
}

func TestMinersOnGeneratedCorpus(t *testing.T) {
	cfg := roadnet.DefaultGenConfig()
	cfg.Cols, cfg.Rows = 10, 10
	g := roadnet.Generate(cfg)
	drivers := traj.NewPopulation(g, traj.PopulationConfig{NumDrivers: 60, Seed: 2, FracCommuter: 1})
	ds := traj.GenerateDataset(g, drivers, traj.DatasetConfig{
		NumODs: 8, TripsPerOD: 20, MinODDistM: 1200, PeakBias: 0.5,
		GPS: traj.DefaultGPSConfig(), Seed: 12,
	})
	// Use the most popular OD from the corpus.
	if len(ds.Trips) == 0 {
		t.Fatal("no trips")
	}
	od := ds.Trips[0].Route
	from, to := od.Source(), od.Dest()
	tm := ds.Trips[0].Depart

	miners := []Miner{NewMPR(), NewMFP(), NewLDR()}
	for _, m := range miners {
		r, support, err := m.Mine(ds, from, to, tm)
		if err != nil {
			t.Errorf("%s: %v", m.Name(), err)
			continue
		}
		if r.Empty() || r.Source() != from || r.Dest() != to {
			t.Errorf("%s: bad endpoints %v", m.Name(), r)
		}
		if !r.Valid(g) {
			t.Errorf("%s: invalid route %v", m.Name(), r)
		}
		if support <= 0 {
			t.Errorf("%s: support = %v", m.Name(), support)
		}
	}
}

func TestModeRoute(t *testing.T) {
	a := roadnet.NewRoute(0, 1, 2)
	b := roadnet.NewRoute(0, 3, 4)
	r, votes, total := modeRoute([]roadnet.Route{a, a, b})
	if !r.Equal(a) || votes != 2 || total != 3 {
		t.Errorf("modeRoute = %v, %d, %d", r, votes, total)
	}
	r, votes, total = modeRoute(nil)
	if !r.Empty() || votes != 0 || total != 0 {
		t.Error("empty modeRoute should be zero")
	}
	// Empty routes are skipped.
	r, _, total = modeRoute([]roadnet.Route{{}, a})
	if !r.Equal(a) || total != 1 {
		t.Errorf("modeRoute with empties = %v, %d", r, total)
	}
}
