package core

import (
	"context"
	"math"
	"testing"

	"crowdplanner/internal/calibrate"
	"crowdplanner/internal/roadnet"
	"crowdplanner/internal/task"
)

func mkSrcCand(source string, nodes ...roadnet.NodeID) task.Candidate {
	return task.Candidate{
		Source: source,
		Route:  roadnet.NewRoute(nodes...),
		LRoute: calibrate.LandmarkRoute{},
	}
}

func TestReliabilityTrackerRecordsWinsAndLosses(t *testing.T) {
	tr := newReliabilityTracker()
	winner := roadnet.NewRoute(0, 1, 2)
	cands := []task.Candidate{
		mkSrcCand("MFP", 0, 1, 2),
		mkSrcCand("MPR", 0, 3, 2),
	}
	tr.record(cands, winner)
	tr.record(cands, winner)
	stats := tr.snapshot()
	if len(stats) != 2 {
		t.Fatalf("stats = %v", stats)
	}
	byName := map[string]SourceStats{}
	for _, s := range stats {
		byName[s.Source] = s
	}
	if s := byName["MFP"]; s.Wins != 2 || s.Total != 2 {
		t.Errorf("MFP = %+v", s)
	}
	if s := byName["MPR"]; s.Wins != 0 || s.Total != 2 {
		t.Errorf("MPR = %+v", s)
	}
	// Laplace smoothing: MFP (2/2) → 3/4; MPR (0/2) → 1/4.
	if p := byName["MFP"].Precision(); math.Abs(p-0.75) > 1e-9 {
		t.Errorf("MFP precision = %v", p)
	}
	if p := byName["MPR"].Precision(); math.Abs(p-0.25) > 1e-9 {
		t.Errorf("MPR precision = %v", p)
	}
}

func TestReliabilityCompositeSources(t *testing.T) {
	tr := newReliabilityTracker()
	winner := roadnet.NewRoute(0, 1)
	// A deduplicated candidate credits each constituent provider.
	tr.record([]task.Candidate{mkSrcCand("ws-fastest+MFP", 0, 1)}, winner)
	stats := tr.snapshot()
	if len(stats) != 2 {
		t.Fatalf("composite should split into 2 sources, got %v", stats)
	}
	// A later loss is charged to its provider alone.
	tr.record([]task.Candidate{mkSrcCand("MPR", 0, 9)}, winner) // MPR loses
	want := map[string][2]int{"MFP": {1, 1}, "MPR": {0, 1}, "ws-fastest": {1, 1}}
	for _, s := range tr.snapshot() {
		if w := want[s.Source]; s.Wins != w[0] || s.Total != w[1] {
			t.Errorf("%s = %d/%d, want %d/%d", s.Source, s.Wins, s.Total, w[0], w[1])
		}
		delete(want, s.Source)
	}
	if len(want) != 0 {
		t.Errorf("sources missing from the scoreboard: %v", want)
	}
	// Unknown sources sit at the uninformed 0.5.
	if p := (SourceStats{Source: "unknown"}).Precision(); p != 0.5 {
		t.Errorf("unknown precision = %v", p)
	}
}

func TestSourceStatsAccumulateThroughPipeline(t *testing.T) {
	s := scenario(t)
	cfg := s.System.Config()
	cfg.ReuseTruth = false
	sys := New(cfg, s.Graph, s.Landmarks, s.Data, s.Pool,
		&PopulationOracle{Data: s.Data, Sample: 30})
	processed := 0
	for _, tr := range s.Data.Trips {
		if processed >= 10 || tr.Route.Empty() {
			break
		}
		if _, err := sys.Recommend(context.Background(), Request{
			From: tr.Route.Source(), To: tr.Route.Dest(), Depart: tr.Depart,
		}); err == nil {
			processed++
		}
	}
	stats := sys.SourceStats()
	if len(stats) == 0 {
		t.Fatal("no source stats after resolved requests")
	}
	var total int
	for _, st := range stats {
		total += st.Total
		if st.Wins > st.Total {
			t.Errorf("%s wins %d > total %d", st.Source, st.Wins, st.Total)
		}
	}
	if total == 0 {
		t.Error("no outcomes recorded")
	}
}
