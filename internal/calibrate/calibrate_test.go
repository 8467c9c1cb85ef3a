package calibrate

import (
	"testing"

	"crowdplanner/internal/geo"
	"crowdplanner/internal/landmark"
	"crowdplanner/internal/roadnet"
	"crowdplanner/internal/traj"
)

// straightGraph builds a 5-node east-west road at y=0, 100 m spacing.
func straightGraph() *roadnet.Graph {
	g := roadnet.NewGraph(5, 8)
	for i := 0; i < 5; i++ {
		g.AddNode(geo.Point{X: float64(i) * 100, Y: 0})
	}
	for i := 0; i+1 < 5; i++ {
		g.AddRoad(roadnet.NodeID(i), roadnet.NodeID(i+1), roadnet.Local, 0, 0)
	}
	return g
}

func TestCalibrateOrdering(t *testing.T) {
	g := straightGraph()
	ls := []*landmark.Landmark{
		{ID: 0, Pt: geo.Point{X: 350, Y: 30}},  // near the end
		{ID: 1, Pt: geo.Point{X: 50, Y: -20}},  // near the start
		{ID: 2, Pt: geo.Point{X: 200, Y: 500}}, // far away
	}
	set := landmark.NewSet(ls)
	r := roadnet.NewRoute(0, 1, 2, 3, 4)
	lr := Calibrate(g, set, r, Config{AnchorRadius: 100})
	if len(lr.Landmarks) != 2 {
		t.Fatalf("landmarks = %v", lr.Landmarks)
	}
	if lr.Landmarks[0] != 1 || lr.Landmarks[1] != 0 {
		t.Errorf("order = %v, want [1 0]", lr.Landmarks)
	}
	if lr.Positions[0] >= lr.Positions[1] {
		t.Errorf("positions not increasing: %v", lr.Positions)
	}
	if !lr.Contains(1) || lr.Contains(2) {
		t.Error("Contains mismatch")
	}
	ids := lr.IDSet()
	if !ids[0] || !ids[1] || ids[2] {
		t.Errorf("IDSet = %v", ids)
	}
	// Each part of the road passes only the landmark beside it.
	head := Calibrate(g, set, roadnet.NewRoute(0, 1, 2), Config{AnchorRadius: 100})
	tail := Calibrate(g, set, roadnet.NewRoute(3, 4), Config{AnchorRadius: 100})
	if len(head.Landmarks) != 1 || head.Landmarks[0] != 1 || len(tail.Landmarks) != 1 || tail.Landmarks[0] != 0 {
		t.Errorf("parts' landmarks = %v and %v, want [1] and [0]", head.Landmarks, tail.Landmarks)
	}
}

func TestCalibrateExtent(t *testing.T) {
	g := straightGraph()
	// A region landmark 250 m off the road: only reachable via its extent.
	ls := []*landmark.Landmark{
		{ID: 0, Kind: landmark.RegionKind, Pt: geo.Point{X: 200, Y: 250}, Extent: 200},
		{ID: 1, Kind: landmark.PointKind, Pt: geo.Point{X: 200, Y: 250}},
	}
	set := landmark.NewSet(ls)
	r := roadnet.NewRoute(0, 1, 2, 3, 4)
	lr := Calibrate(g, set, r, Config{AnchorRadius: 100})
	if !lr.Contains(0) {
		t.Error("region with extent should be on the route")
	}
	if lr.Contains(1) {
		t.Error("point at same anchor without extent should be off the route")
	}
}

func TestCalibrateEmpty(t *testing.T) {
	g := straightGraph()
	set := landmark.NewSet(nil)
	lr := Calibrate(g, set, roadnet.NewRoute(0, 1), DefaultConfig())
	if len(lr.Landmarks) != 0 {
		t.Error("no landmarks -> empty calibration")
	}
	lr = Calibrate(g, landmark.NewSet([]*landmark.Landmark{{ID: 0}}), roadnet.Route{}, DefaultConfig())
	if len(lr.Landmarks) != 0 {
		t.Error("empty route -> empty calibration")
	}
}

func TestCalibrateDiscriminates(t *testing.T) {
	// Two parallel roads; a landmark on each; calibration must separate them.
	g := roadnet.NewGraph(6, 12)
	for i := 0; i < 3; i++ {
		g.AddNode(geo.Point{X: float64(i) * 100, Y: 0}) // 0,1,2 south road
	}
	for i := 0; i < 3; i++ {
		g.AddNode(geo.Point{X: float64(i) * 100, Y: 400}) // 3,4,5 north road
	}
	for i := 0; i+1 < 3; i++ {
		g.AddRoad(roadnet.NodeID(i), roadnet.NodeID(i+1), roadnet.Local, 0, 0)
		g.AddRoad(roadnet.NodeID(i+3), roadnet.NodeID(i+4), roadnet.Local, 0, 0)
	}
	ls := []*landmark.Landmark{
		{ID: 0, Pt: geo.Point{X: 100, Y: 20}},  // south
		{ID: 1, Pt: geo.Point{X: 100, Y: 380}}, // north
	}
	set := landmark.NewSet(ls)
	south := Calibrate(g, set, roadnet.NewRoute(0, 1, 2), Config{AnchorRadius: 100})
	north := Calibrate(g, set, roadnet.NewRoute(3, 4, 5), Config{AnchorRadius: 100})
	if !south.Contains(0) || south.Contains(1) {
		t.Errorf("south landmarks = %v", south.Landmarks)
	}
	if !north.Contains(1) || north.Contains(0) {
		t.Errorf("north landmarks = %v", north.Landmarks)
	}
}

func TestTrajectoryVisits(t *testing.T) {
	cfg := roadnet.DefaultGenConfig()
	cfg.Cols, cfg.Rows = 8, 8
	g := roadnet.Generate(cfg)
	drivers := traj.NewPopulation(g, traj.PopulationConfig{NumDrivers: 10, Seed: 2, FracCommuter: 1})
	ds := traj.GenerateDataset(g, drivers, traj.DatasetConfig{
		NumODs: 5, TripsPerOD: 4, MinODDistM: 800,
		GPS: traj.DefaultGPSConfig(), Seed: 4,
	})
	set := landmark.Generate(g, landmark.GenConfig{NumPoints: 60, Seed: 5})
	visits := TrajectoryVisits(ds, set, DefaultConfig(), 1000)
	if len(visits) == 0 {
		t.Fatal("expected some trajectory visits")
	}
	for _, v := range visits {
		if v.Traveller < 1000 {
			t.Fatalf("traveller %d below base offset", v.Traveller)
		}
		if set.Get(v.Landmark) == nil {
			t.Fatalf("visit references unknown landmark %d", v.Landmark)
		}
	}
}
