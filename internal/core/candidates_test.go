package core

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"crowdplanner/internal/calibrate"
	"crowdplanner/internal/geo"
	"crowdplanner/internal/popular"
	"crowdplanner/internal/roadnet"
	"crowdplanner/internal/routing"
	"crowdplanner/internal/task"
)

// referenceCandidates is the candidate fan-out before the provider table:
// six slots (ws-shortest, a separate ws-fastest A*, a Yen call whose first
// route is skipped, one per miner), merged in slot order through a map keyed
// by Route.String(). The slots run one after another; the merge order is
// fixed either way.
func referenceCandidates(s *System, req Request) []task.Candidate {
	type proposal struct {
		source string
		route  roadnet.Route
	}
	slots := []func() []proposal{
		func() []proposal {
			if r, _, err := s.prepDist.AStar(req.From, req.To, req.Depart); err == nil {
				return []proposal{{"ws-shortest", r}}
			}
			return nil
		},
		func() []proposal {
			if r, _, err := s.prepTime.AStar(req.From, req.To, req.Depart); err == nil {
				return []proposal{{"ws-fastest", r}}
			}
			return nil
		},
		func() []proposal {
			k := s.cfg.KShortestAlternatives
			if k <= 0 {
				return nil
			}
			rs, _, err := s.prepTime.KShortest(req.From, req.To, k+1, req.Depart)
			if err != nil {
				return nil
			}
			var out []proposal
			for i := 1; i < len(rs); i++ {
				out = append(out, proposal{fmt.Sprintf("ws-alt%d", i), rs[i]})
			}
			return out
		},
	}
	for _, m := range []popular.Miner{popular.NewMPR(), popular.NewLDR(), popular.NewMFP()} {
		slots = append(slots, func() []proposal {
			if r, _, err := m.Mine(s.data, req.From, req.To, req.Depart); err == nil {
				return []proposal{{m.Name(), r}}
			}
			return nil
		})
	}

	var cands []task.Candidate
	seen := map[string]int{}
	for _, slot := range slots {
		for _, p := range slot() {
			rk := p.route.String()
			if i, ok := seen[rk]; ok {
				cands[i].Source += "+" + p.source
				continue
			}
			seen[rk] = len(cands)
			cands = append(cands, task.Candidate{
				Source: p.source,
				Route:  p.route,
				LRoute: calibrate.Calibrate(s.graph, s.landmarks, p.route, s.cfg.Calibrate),
			})
		}
	}
	return cands
}

// TestCandidatesMatchReference pins the provider table to the fan-out it
// replaced: on random default-world requests, System.Candidates returns the
// reference's sources, routes and landmark routes in the reference's order,
// with Yen's alternatives on (the default), off (0) and negative (-1).
func TestCandidatesMatchReference(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the default world")
	}
	world := BuildScenario(DefaultScenarioConfig())
	g := world.Graph
	requests := 500
	if raceEnabled {
		requests = 100
	}
	for _, k := range []int{2, 0, -1} {
		t.Run(fmt.Sprintf("alternatives=%d", k), func(t *testing.T) {
			cfg := world.System.Config()
			cfg.ReuseTruth = false
			cfg.RouteCacheCapacity = 0
			cfg.KShortestAlternatives = k
			cfg.UsePMF = false // candidates never read familiarity
			sys := New(cfg, g, world.Landmarks, world.Data, world.Pool,
				&PopulationOracle{Data: world.Data, Sample: cfg.OracleSample})

			rng := rand.New(rand.NewSource(27))
			var alts, merged int
			for n := 0; n < requests; {
				from := roadnet.NodeID(rng.Intn(g.NumNodes()))
				to := roadnet.NodeID(rng.Intn(g.NumNodes()))
				if n%2 == 1 {
					// Every other OD is a corpus trip's, where the miners
					// answer and proposals coincide.
					r := world.Data.Trips[rng.Intn(len(world.Data.Trips))].Route
					from, to = r.Source(), r.Dest()
				}
				if geo.Dist(g.Node(from).Pt, g.Node(to).Pt) < 1500 {
					continue
				}
				req := Request{From: from, To: to, Depart: routing.At(rng.Intn(5), 6+rng.Intn(14), rng.Intn(60))}
				n++

				got, err := sys.Candidates(context.Background(), req)
				if err != nil {
					t.Fatal(err)
				}
				want := referenceCandidates(sys, req)
				if len(got) != len(want) {
					t.Fatalf("%+v: %d candidates, reference %d", req, len(got), len(want))
				}
				for i := range want {
					if got[i].Source != want[i].Source || !got[i].Route.Equal(want[i].Route) ||
						!reflect.DeepEqual(got[i].LRoute, want[i].LRoute) {
						t.Fatalf("%+v: candidate %d is %s %v, reference %s %v",
							req, i, got[i].Source, got[i].Route, want[i].Source, want[i].Route)
					}
					if strings.HasPrefix(want[i].Source, "ws-alt") {
						alts++
					}
					if strings.Contains(want[i].Source, "+") {
						merged++
					}
				}
			}
			// The comparison must cover both the alternatives and the merge.
			if (k > 0) != (alts > 0) || merged == 0 {
				t.Errorf("%d alternatives and %d merged candidates over %d requests", alts, merged, requests)
			}
		})
	}
}
