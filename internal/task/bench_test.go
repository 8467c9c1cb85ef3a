package task_test

import (
	"context"
	"testing"

	"crowdplanner/internal/core"
	"crowdplanner/internal/task"
	"crowdplanner/internal/traj"
)

// BenchmarkGreedySelecting times landmark selection alone on the merged
// candidate sets the default world's system proposes for its corpus ODs,
// the requests a truth-reuse warm-up resolves through the crowd.
func BenchmarkGreedySelecting(b *testing.B) {
	scn := core.BuildScenario(core.DefaultScenarioConfig())
	var sets [][]task.Candidate
	seen := map[traj.OD]bool{}
	for _, tr := range scn.Data.Trips {
		od := traj.OD{From: tr.Route.Source(), To: tr.Route.Dest()}
		if seen[od] {
			continue
		}
		seen[od] = true
		raw, err := scn.System.Candidates(context.Background(), core.Request{From: od.From, To: od.To, Depart: tr.Depart})
		if err != nil {
			b.Fatal(err)
		}
		if cands := task.MergeIndistinguishable(raw); len(cands) > 1 {
			sets = append(sets, cands)
		}
	}
	if len(sets) == 0 {
		b.Fatal("no corpus OD has two distinguishable candidates")
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := task.SelectOnly(scn.Landmarks, sets[i%len(sets)], task.Greedy); err != nil {
			b.Fatal(err)
		}
	}
}
