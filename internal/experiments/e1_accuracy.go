package experiments

import (
	"context"

	"crowdplanner/internal/core"
	"crowdplanner/internal/roadnet"
)

// E1Accuracy reproduces the headline comparison (reconstructed Table E1):
// recommendation quality per source — each candidate provider the system
// runs (web-service shortest and fastest, the three popular-route miners),
// TR-only CrowdPlanner (crowd disabled) and full CrowdPlanner — on dense vs
// sparse trajectory regions. Quality is the mean route similarity to the
// population ground truth and the win rate (similarity ≥ 0.9). Expected
// shape (paper §VI): CrowdPlanner best everywhere; MFP the strongest miner
// on dense data; miners degrade badly on sparse data while CrowdPlanner
// holds.
func E1Accuracy(odsPerRegime int) *Table {
	scn := World()
	tbl := &Table{
		ID:    "E1",
		Title: "recommendation accuracy by source (dense vs sparse regions)",
		Header: []string{
			"method",
			"dense meanSim", "dense sim|ans", "dense win%", "dense answered%",
			"sparse meanSim", "sparse win%", "sparse answered%",
		},
	}

	dense := denseODs(scn, odsPerRegime)
	sparse := sparseODs(scn, odsPerRegime, 777)

	type method struct {
		name string
		rec  func(req core.Request) (roadnet.Route, bool)
	}
	gt := func(req core.Request) (roadnet.Route, bool) {
		r, err := scn.Data.GroundTruth(req.From, req.To, req.Depart, scn.System.Config().OracleSample)
		return r, err == nil
	}

	// TR-only: full pipeline but the crowd path falls back to best prior.
	trCfg := scn.System.Config()
	trCfg.ReuseTruth = false
	trCfg.WorkersPerTask = 0 // no workers => StageFallback instead of crowd
	trOnly := core.New(trCfg, scn.Graph, scn.Landmarks, scn.Data, scn.Pool,
		&core.PopulationOracle{Data: scn.Data, Sample: trCfg.OracleSample})
	// Full CrowdPlanner on a fresh truth DB.
	cpCfg := scn.System.Config()
	cpCfg.ReuseTruth = false
	cp := core.New(cpCfg, scn.Graph, scn.Landmarks, scn.Data, scn.Pool,
		&core.PopulationOracle{Data: scn.Data, Sample: cpCfg.OracleSample})

	mkSystem := func(s *core.System) func(core.Request) (roadnet.Route, bool) {
		return func(req core.Request) (roadnet.Route, bool) {
			resp, err := s.Recommend(context.Background(), req)
			if err != nil {
				return roadnet.Route{}, false
			}
			return resp.Route, true
		}
	}

	// Each provider is graded on its own route, as the server proposes it.
	var methods []method
	for _, p := range core.Providers() {
		methods = append(methods, method{p.Name, func(req core.Request) (roadnet.Route, bool) {
			rs, err := p.Propose(scn.System, req)
			if err != nil {
				return roadnet.Route{}, false
			}
			return rs[0], true
		}})
	}
	methods = append(methods, method{"TR-only", mkSystem(trOnly)}, method{"CrowdPlanner", mkSystem(cp)})

	evaluate := func(rec func(core.Request) (roadnet.Route, bool), reqs []core.Request) (meanSim, simIfAns, winRate, answered float64) {
		var simSum float64
		var wins, ok, total int
		for _, req := range reqs {
			truth, hasGT := gt(req)
			if !hasGT {
				continue
			}
			total++
			r, found := rec(req)
			if !found || r.Empty() {
				continue
			}
			ok++
			sim := r.Similarity(truth)
			simSum += sim
			if sim >= 0.9 {
				wins++
			}
		}
		if total == 0 {
			return 0, 0, 0, 0
		}
		// Unanswered requests score 0 similarity in meanSim: a recommender
		// that declines sparse requests pays for it, as in the paper's
		// motivation. simIfAns conditions on having answered, which is how
		// the paper grades the miners themselves.
		if ok > 0 {
			simIfAns = simSum / float64(ok)
		}
		return simSum / float64(total), simIfAns, float64(wins) / float64(total), float64(ok) / float64(total)
	}

	for _, m := range methods {
		dSim, dCond, dWin, dAns := evaluate(m.rec, dense)
		sSim, _, sWin, sAns := evaluate(m.rec, sparse)
		tbl.AddRow(m.name, f3(dSim), f3(dCond), f2(dWin*100), f2(dAns*100), f3(sSim), f2(sWin*100), f2(sAns*100))
	}
	tbl.Notes = append(tbl.Notes,
		"win = similarity to population ground truth >= 0.9; unanswered requests count as similarity 0 in meanSim",
		"sim|ans conditions on the method having answered (how the paper grades the miners)",
		"expected shape: CrowdPlanner tops both regimes; MFP best miner on sim|ans; miners collapse on sparse")
	return tbl
}
