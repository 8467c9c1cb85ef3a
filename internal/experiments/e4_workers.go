package experiments

import (
	"context"

	"math/rand"
	"sort"

	"crowdplanner/internal/calibrate"
	"crowdplanner/internal/core"
	"crowdplanner/internal/crowd"
	"crowdplanner/internal/geo"
	"crowdplanner/internal/landmark"
	"crowdplanner/internal/task"
	"crowdplanner/internal/worker"
)

// workerStrategy picks k workers for a task.
type workerStrategy func(scn *core.Scenario, tk *task.Task, k int, rng *rand.Rand) []worker.Ranked

// crowdTask is a prepared crowd task with its simulated truth.
type crowdTask struct {
	tk       *task.Task
	truthSet map[landmark.ID]bool
	bestIdx  int // candidate with max similarity to the population truth
}

// buildCrowdTask assembles a crowdTask from a candidate set: generates the
// question tree and attaches the population ground truth. Returns nil when
// the task cannot be built (indistinguishable candidates, no ground truth).
func buildCrowdTask(scn *core.Scenario, cs candSet) *crowdTask {
	cands := task.MergeIndistinguishable(cs.cands)
	if len(cands) < 2 {
		return nil
	}
	tk, err := task.Generate(1, scn.Landmarks, cands, task.DefaultConfig())
	if err != nil {
		return nil
	}
	truthRoute, err := scn.Data.GroundTruth(cs.req.From, cs.req.To, cs.req.Depart, scn.System.Config().OracleSample)
	if err != nil {
		return nil
	}
	lr := calibrate.Calibrate(scn.Graph, scn.Landmarks, truthRoute, scn.System.Config().Calibrate)
	best, bestSim := 0, -1.0
	for i, c := range cands {
		if s := c.Route.Similarity(truthRoute); s > bestSim {
			bestSim, best = s, i
		}
	}
	return &crowdTask{tk: tk, truthSet: lr.IDSet(), bestIdx: best}
}

// prepareCrowdTasks builds crowd tasks (candidates that disagree) from dense
// ODs, with the population ground truth attached.
func prepareCrowdTasks(scn *core.Scenario, want int) []crowdTask {
	var out []crowdTask
	for _, req := range denseODs(scn, want*3) {
		if len(out) >= want {
			break
		}
		cands, _ := scn.System.Candidates(context.Background(), req)
		ct := buildCrowdTask(scn, candSet{req: req, cands: cands})
		if ct == nil {
			continue
		}
		out = append(out, *ct)
	}
	return out
}

// famFn adapts the workers' *actual* knowledge matrix for the answer
// simulation (selection strategies consult the system's estimate instead).
func famFn(scn *core.Scenario) crowd.FamiliarityFn {
	mtrue := scn.System.TrueFamiliarity()
	return func(workerIdx int, l landmark.ID) float64 {
		if v, ok := mtrue.Get(workerIdx, int(l)); ok {
			return v
		}
		return 0
	}
}

// Strategies under comparison.
func eligibleStrategy(scn *core.Scenario, tk *task.Task, k int, _ *rand.Rand) []worker.Ranked {
	return worker.TopKEligible(scn.Pool, scn.System.Familiarity(), tk.Questions, k, scn.System.Config().Select)
}

func randomStrategy(scn *core.Scenario, _ *task.Task, k int, rng *rand.Rand) []worker.Ranked {
	perm := rng.Perm(scn.Pool.Len())
	var out []worker.Ranked
	for _, i := range perm {
		if len(out) >= k {
			break
		}
		out = append(out, worker.Ranked{Worker: scn.Pool.Workers[i], Score: 0})
	}
	return out
}

func nearestHomeStrategy(scn *core.Scenario, tk *task.Task, k int, _ *rand.Rand) []worker.Ranked {
	// Center of the task's question landmarks.
	var cx, cy float64
	var n int
	for _, lid := range tk.Questions {
		if l := scn.Landmarks.Get(lid); l != nil {
			cx += l.Pt.X
			cy += l.Pt.Y
			n++
		}
	}
	if n > 0 {
		cx /= float64(n)
		cy /= float64(n)
	}
	center := geo.Point{X: cx, Y: cy}
	type scored struct {
		w *worker.Worker
		d float64
	}
	all := make([]scored, scn.Pool.Len())
	for i, w := range scn.Pool.Workers {
		all[i] = scored{w: w, d: geo.Dist(w.Profile.Home, center)}
	}
	sort.Slice(all, func(a, b int) bool {
		if all[a].d != all[b].d {
			return all[a].d < all[b].d
		}
		return all[a].w.ID < all[b].w.ID
	})
	var out []worker.Ranked
	for i := 0; i < k && i < len(all); i++ {
		out = append(out, worker.Ranked{Worker: all[i].w, Score: -all[i].d})
	}
	return out
}

// runStrategy measures a strategy: fraction of tasks resolved to the best
// candidate and mean per-answer correctness.
func runStrategy(scn *core.Scenario, tasks []crowdTask, strat workerStrategy, k int, seed int64) (pickedBest, answerAcc float64) {
	fam := famFn(scn)
	model := scn.System.Config().Answers
	var best, total int
	var correct, answers int
	for i, ct := range tasks {
		rng := newRng(seed + int64(i))
		workers := strat(scn, ct.tk, k, rng)
		if len(workers) == 0 {
			total++
			continue
		}
		// The simulation's only error is the context's, and Background is never cancelled.
		run, _ := crowd.RunTaskCtx(context.Background(), ct.tk, workers, ct.truthSet, fam, model, 0, rng,
			func(_ landmark.ID, as []crowd.Answer, used int) {
				for _, a := range as[:used] {
					answers++
					if a.Correct {
						correct++
					}
				}
			})
		total++
		if run.Resolved == ct.bestIdx {
			best++
		}
	}
	if total == 0 {
		return 0, 0
	}
	pickedBest = float64(best) / float64(total)
	if answers > 0 {
		answerAcc = float64(correct) / float64(answers)
	}
	return pickedBest, answerAcc
}

// E4Workers reproduces the worker-selection figure (reconstructed E4): task
// resolution accuracy and raw answer accuracy for top-k eligible selection
// vs random workers vs nearest-home workers, as k grows. Expected shape:
// eligible > nearest-home > random at every k; all improve with k.
func E4Workers(numTasks int) *Table {
	scn := World()
	tasks := prepareCrowdTasks(scn, numTasks)
	tbl := &Table{
		ID:    "E4",
		Title: "worker selection: task accuracy / answer accuracy vs k",
		Header: []string{"k", "eligible task%", "eligible ans%",
			"nearest task%", "nearest ans%", "random task%", "random ans%"},
	}
	for _, k := range []int{1, 3, 5, 7, 9} {
		eb, ea := runStrategy(scn, tasks, eligibleStrategy, k, 10_000)
		nb, na := runStrategy(scn, tasks, nearestHomeStrategy, k, 10_000)
		rb, ra := runStrategy(scn, tasks, randomStrategy, k, 10_000)
		tbl.AddRow(d(k), f2(eb*100), f2(ea*100), f2(nb*100), f2(na*100), f2(rb*100), f2(ra*100))
	}
	tbl.Notes = append(tbl.Notes,
		"task% = resolved to the candidate closest to population truth; ans% = raw per-answer correctness",
		"expected shape: eligible >= nearest-home >= random at every k")
	return tbl
}
