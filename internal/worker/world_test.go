package worker_test

import (
	"context"
	"math/rand"
	"reflect"
	"testing"

	"crowdplanner/internal/core"
	"crowdplanner/internal/roadnet"
	"crowdplanner/internal/routing"
	"crowdplanner/internal/task"
	"crowdplanner/internal/worker"
)

// TestTopKEligibleDefaultWorld: on the default world's M* and 200 tasks
// generated from its candidate routes, selection equals the map-and-sort
// reference. It is an external test of package worker, not a test of
// internal/core, because the reference is package worker's test code.
func TestTopKEligibleDefaultWorld(t *testing.T) {
	scn := core.BuildScenario(core.DefaultScenarioConfig())
	sys := scn.System
	mstar := sys.Familiarity()
	cfg := sys.Config()
	// Some workers near or at quota, so the quota filter bites too.
	rng := rand.New(rand.NewSource(18))
	for _, w := range scn.Pool.Workers {
		w.Outstanding = rng.Intn(cfg.Select.MaxOutstanding + 2)
	}
	nodes := scn.Graph.NumNodes()
	tasks, selected := 0, 0
	for tries := 0; tasks < 200 && tries < 2000; tries++ {
		req := core.Request{
			From:   roadnet.NodeID(rng.Intn(nodes)),
			To:     roadnet.NodeID(rng.Intn(nodes)),
			Depart: routing.SimTime(6*60 + rng.Intn(14*60)),
		}
		cands, err := sys.Candidates(context.Background(), req)
		if err != nil {
			continue
		}
		merged := task.MergeIndistinguishable(cands)
		if len(merged) < 2 {
			continue
		}
		tk, err := task.Generate(int64(tasks), scn.Landmarks, merged, cfg.Task)
		if err != nil {
			continue
		}
		sel := cfg.Select
		sel.DeadlineMinutes = []float64{60, 20, 120}[tasks%3]
		for _, k := range []int{cfg.WorkersPerTask, scn.Pool.Len()} {
			got := worker.TopKEligible(scn.Pool, mstar, tk.Questions, k, sel)
			want := worker.RefTopKEligible(scn.Pool, mstar, tk.Questions, k, sel)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("task %d (landmarks %v, k=%d): selection differs from the reference", tasks, tk.Questions, k)
			}
			selected += len(got)
		}
		tasks++
	}
	if tasks < 200 || selected < tasks*cfg.WorkersPerTask {
		t.Fatalf("%d tasks selected %d workers in all; want 200 tasks and %d workers per task on average", tasks, selected, cfg.WorkersPerTask)
	}
}
