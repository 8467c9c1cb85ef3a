package core

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"crowdplanner/internal/roadnet"
	"crowdplanner/internal/task"
)

// refAgreement is the agreement check before edge keys: every ordered pair
// compared, each comparison building both edge sets, the minimum tested at
// the end. (Route.Similarity itself is pinned to the map-based Jaccard in
// package roadnet.)
func refAgreement(agreementSim float64, cands []task.Candidate) (task.Candidate, float64, bool) {
	if len(cands) == 0 {
		return task.Candidate{}, 0, false
	}
	if len(cands) == 1 {
		return cands[0], 1, true
	}
	bestIdx, bestMean := -1, -1.0
	minSim := 1.0
	for i := range cands {
		var mean float64
		for j := range cands {
			if i == j {
				continue
			}
			sim := cands[i].Route.Similarity(cands[j].Route)
			mean += sim
			if i < j && sim < minSim {
				minSim = sim
			}
		}
		mean /= float64(len(cands) - 1)
		if mean > bestMean {
			bestMean, bestIdx = mean, i
		}
	}
	if minSim >= agreementSim {
		return cands[bestIdx], bestMean, true
	}
	return task.Candidate{}, 0, false
}

// TestAgreementMatchesReference pins agreement to the map-based reference
// on random candidate sets of 0 to 6 routes — perturbed copies of one walk,
// so pairs often agree — at AgreementSim 0 (always agree), 0.8 (the
// default), 1.01 (never) and NaN (never): same verdict, same medoid, same
// mean bits.
func TestAgreementMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	agreed, refused := 0, 0 // sets of 3+ candidates at the default 0.8
	for iter := range 4000 {
		base := make([]roadnet.NodeID, 2+rng.Intn(25))
		for i := range base {
			base[i] = roadnet.NodeID(rng.Intn(60))
		}
		cands := make([]task.Candidate, rng.Intn(7))
		for c := range cands {
			nodes := append([]roadnet.NodeID(nil), base...)
			for k := rng.Intn(4) - 1; k > 0; k-- {
				nodes[rng.Intn(len(nodes))] = roadnet.NodeID(rng.Intn(60))
			}
			if rng.Intn(8) == 0 {
				nodes = nodes[:rng.Intn(len(nodes)+1)]
			}
			cands[c] = task.Candidate{Source: fmt.Sprintf("c%d", c), Route: roadnet.Route{Nodes: nodes}}
		}
		for _, sim := range []float64{0, 0.8, 1.01, math.NaN()} {
			s := &System{cfg: Config{AgreementSim: sim}}
			got, gotMean, gotOK := s.agreement(cands)
			want, wantMean, wantOK := refAgreement(sim, cands)
			if gotOK != wantOK || got.Source != want.Source || !got.Route.Equal(want.Route) ||
				math.Float64bits(gotMean) != math.Float64bits(wantMean) {
				t.Fatalf("set %d (%d candidates), AgreementSim %v: got %q %v %v, reference %q %v %v",
					iter, len(cands), sim, got.Source, gotMean, gotOK, want.Source, wantMean, wantOK)
			}
			if sim == 0.8 && len(cands) >= 3 {
				if gotOK {
					agreed++
				} else {
					refused++
				}
			}
		}
	}
	if agreed < 100 || refused < 100 {
		t.Fatalf("at 0.8, %d sets of 3+ candidates agreed and %d did not; the sweep must exercise both", agreed, refused)
	}
}
