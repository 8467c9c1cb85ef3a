package core

import (
	"context"
	"errors"
	"testing"

	"crowdplanner/internal/roadnet"
	"crowdplanner/internal/routing"
	"crowdplanner/internal/task"
	"crowdplanner/internal/traj"
)

// failingOracle simulates the population oracle being unavailable.
type failingOracle struct{}

var errOracleDown = errors.New("oracle unavailable")

func (failingOracle) BestRoute(roadnet.NodeID, roadnet.NodeID, routing.SimTime) (roadnet.Route, error) {
	return roadnet.Route{}, errOracleDown
}

func TestRecommendOracleFailurePropagates(t *testing.T) {
	s := scenario(t)
	cfg := s.System.Config()
	cfg.AgreementSim = 1.01 // force the crowd path
	cfg.EtaConfidence = 1.01
	cfg.ReuseTruth = false
	sys := New(cfg, s.Graph, s.Landmarks, s.Data, s.Pool, failingOracle{})

	from, to, depart := pickOD(s)
	truthsBefore := sys.TruthDB().Len()
	_, err := sys.Recommend(context.Background(), Request{From: from, To: to, Depart: depart})
	if !errors.Is(err, errOracleDown) {
		t.Fatalf("err = %v, want oracle failure", err)
	}
	// A failed crowd run must not pollute the truth database.
	if sys.TruthDB().Len() != truthsBefore {
		t.Error("failed crowd run stored a truth")
	}
	// Outstanding counters must be rolled back.
	for _, w := range s.Pool.Workers {
		if w.Outstanding != 0 {
			t.Errorf("worker %d outstanding = %d after failure", w.ID, w.Outstanding)
		}
	}
}

func TestRecommendNoWorkersFallsBack(t *testing.T) {
	s := scenario(t)
	cfg := s.System.Config()
	cfg.AgreementSim = 1.01
	cfg.EtaConfidence = 1.01
	cfg.ReuseTruth = false
	cfg.WorkersPerTask = 0 // nobody to ask
	sys := New(cfg, s.Graph, s.Landmarks, s.Data, s.Pool,
		&PopulationOracle{Data: s.Data, Sample: 30})

	from, to, depart := pickOD(s)
	resp, err := sys.Recommend(context.Background(), Request{From: from, To: to, Depart: depart})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Stage != StageFallback {
		t.Errorf("stage = %v, want fallback", resp.Stage)
	}
	if resp.Route.Empty() || !resp.Route.Valid(s.Graph) {
		t.Error("fallback must still produce a valid route")
	}
}

func TestRecommendAllWorkersBusy(t *testing.T) {
	s := scenario(t)
	cfg := s.System.Config()
	cfg.AgreementSim = 1.01
	cfg.EtaConfidence = 1.01
	cfg.ReuseTruth = false
	sys := New(cfg, s.Graph, s.Landmarks, s.Data, s.Pool,
		&PopulationOracle{Data: s.Data, Sample: 30})

	// Saturate every worker's quota.
	for _, w := range s.Pool.Workers {
		w.Outstanding = cfg.Select.MaxOutstanding
	}
	defer func() {
		for _, w := range s.Pool.Workers {
			w.Outstanding = 0
		}
	}()

	from, to, depart := pickOD(s)
	resp, err := sys.Recommend(context.Background(), Request{From: from, To: to, Depart: depart})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Stage != StageFallback {
		t.Errorf("stage = %v, want fallback when all workers are busy", resp.Stage)
	}
}

func TestRecommendIsolatedDataset(t *testing.T) {
	// A system over an empty trajectory corpus: miners always decline, only
	// web-service candidates exist, and the pipeline still answers.
	s := scenario(t)
	emptyCopy := traj.NewDataset(s.Data.Graph, s.Data.Drivers, nil)
	cfg := s.System.Config()
	cfg.ReuseTruth = false
	sys := New(cfg, s.Graph, s.Landmarks, emptyCopy, s.Pool,
		&PopulationOracle{Data: s.Data, Sample: 30})

	from, to, depart := pickOD(s)
	resp, err := sys.Recommend(context.Background(), Request{From: from, To: to, Depart: depart})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Route.Empty() {
		t.Error("empty corpus should still yield a route from web providers")
	}
}

func TestBestByConsensus(t *testing.T) {
	s := scenario(t)
	from, to, depart := pickOD(s)
	cands, err := s.System.Candidates(context.Background(), Request{From: from, To: to, Depart: depart})
	if err != nil {
		t.Fatal(err)
	}
	if len(cands) == 0 {
		t.Fatal("no candidates")
	}
	got := bestByConsensus(cands)
	if got.Route.Empty() {
		t.Fatal("consensus pick empty")
	}
	// Single candidate: returned as-is.
	if one := bestByConsensus(cands[:1]); !one.Route.Equal(cands[0].Route) {
		t.Error("single-candidate consensus wrong")
	}
	// A dominating prior wins regardless of similarity.
	if len(cands) >= 2 {
		boosted := make([]task.Candidate, len(cands))
		copy(boosted, cands)
		boosted[len(boosted)-1].Prior = 100
		if pick := bestByConsensus(boosted); !pick.Route.Equal(boosted[len(boosted)-1].Route) {
			t.Error("dominating prior should win the consensus")
		}
	}
}
