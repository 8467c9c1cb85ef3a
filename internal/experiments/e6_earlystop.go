package experiments

import (
	"context"

	"crowdplanner/internal/crowd"
)

// E6EarlyStop reproduces the early-stop figure (reconstructed E6): answers
// consumed and task accuracy as the stop-confidence threshold sweeps from
// off (consume all answers) to 0.99, with 9 workers per task. Expected
// shape: lower thresholds save more answers; accuracy degrades only
// mildly until the threshold gets close to 0.5.
func E6EarlyStop(numTasks int) *Table {
	scn := World()
	tasks := prepareCrowdTasks(scn, numTasks)
	fam := famFn(scn)
	model := scn.System.Config().Answers
	const k = 9
	tbl := &Table{
		ID:     "E6",
		Title:  "early stop: answers used and accuracy vs confidence threshold (9 workers)",
		Header: []string{"threshold", "answers/task", "saved%", "task accuracy%", "elapsed min"},
	}
	thresholds := []float64{0, 0.7, 0.8, 0.9, 0.95, 0.99}
	for _, th := range thresholds {
		var used, asked, elapsed float64
		var best, total int
		for i, ct := range tasks {
			rng := newRng(60_000 + int64(i))
			workers := eligibleStrategy(scn, ct.tk, k, rng)
			if len(workers) == 0 {
				continue
			}
			// The simulation's only error is the context's, and Background is never cancelled.
			run, _ := crowd.RunTaskCtx(context.Background(), ct.tk, workers, ct.truthSet, fam, model, th, rng, nil)
			used += float64(run.AnswersUsed)
			asked += float64(run.AnswersAsked)
			elapsed += run.ElapsedMin
			total++
			if run.Resolved == ct.bestIdx {
				best++
			}
		}
		if total == 0 {
			continue
		}
		ft := float64(total)
		saved := 0.0
		if asked > 0 {
			saved = (asked - used) / asked * 100
		}
		label := f2(th)
		if th == 0 {
			label = "off"
		}
		tbl.AddRow(label, f2(used/ft), f2(saved), f2(float64(best)/ft*100), f2(elapsed/ft))
	}
	tbl.Notes = append(tbl.Notes,
		"threshold off = consume every answer; elapsed = sum over questions of slowest consumed answer",
		"expected shape: answer savings grow as the threshold drops; accuracy stays flat until ~0.7")
	return tbl
}
