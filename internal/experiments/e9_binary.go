package experiments

import (
	"context"
	"math"
	"math/rand"

	"crowdplanner/internal/crowd"
	"crowdplanner/internal/worker"
)

// multipleChoiceRun simulates the baseline the paper argues against
// (§III, citing [20]): showing all n candidate routes on a map as one
// multiple-choice question. Two modelling choices, both documented in
// EXPERIMENTS.md: (1) identifying the best of n routes requires keeping the
// favourite through n−1 pairwise comparisons, so a worker with binary
// accuracy a answers the n-way question correctly with probability a^(n−1);
// (2) errors are *correlated* — workers who get it wrong overwhelmingly
// pick the same most-plausible-looking alternative (the decoy), which is
// precisely what makes n-way map comparisons hard. Plurality voting fuses
// the picks.
func multipleChoiceRun(ct crowdTask, workers []worker.Ranked, fam crowd.FamiliarityFn, model crowd.AnswerModel, rng *rand.Rand) (resolved int) {
	n := len(ct.tk.Candidates)
	if n == 0 {
		return 0
	}
	decoy := (ct.bestIdx + 1) % n
	votes := make([]int, n)
	for _, r := range workers {
		// Mean familiarity over the task's question landmarks stands in for
		// the worker's familiarity with the differences among routes.
		var f float64
		if len(ct.tk.Questions) > 0 {
			for _, q := range ct.tk.Questions {
				f += fam(int(r.Worker.ID), q)
			}
			f /= float64(len(ct.tk.Questions))
		}
		a := model.Accuracy(f)
		pCorrect := math.Pow(a, float64(n-1))
		switch {
		case rng.Float64() < pCorrect:
			votes[ct.bestIdx]++
		case rng.Float64() < 0.8: // correlated confusion towards the decoy
			votes[decoy]++
		default:
			wrong := rng.Intn(n - 1)
			if wrong >= ct.bestIdx {
				wrong++
			}
			votes[wrong]++
		}
	}
	best := 0
	for i, v := range votes {
		if v > votes[best] {
			best = i
		}
	}
	return best
}

// E9Binary reproduces the question-format table (reconstructed E9): binary
// question trees vs a single multiple-choice question, by candidate count.
// Expected shape (paper §III, [20]): comparable at n = 2 (a binary question
// *is* a 2-way choice), binary pulling ahead as n grows.
func E9Binary(tasksPerSize int) *Table {
	scn := World()
	fam := famFn(scn)
	model := scn.System.Config().Answers
	const k = 7
	tbl := &Table{
		ID:    "E9",
		Title: "binary question tree vs multiple choice (7 workers)",
		Header: []string{"n candidates", "tasks", "binary acc%", "binary-ES acc%", "MC acc%",
			"binary answers", "binary-ES answers", "MC answers"},
	}
	for n := 2; n <= 6; n++ {
		sets := candidateSetsOfSize(scn, n, tasksPerSize)
		var cts []crowdTask
		for _, cs := range sets {
			if ct := buildCrowdTask(scn, cs); ct != nil {
				cts = append(cts, *ct)
			}
		}
		if len(cts) == 0 {
			continue
		}
		var binHits, esHits, mcHits int
		var binAnswers, esAnswers, mcAnswers float64
		for i, ct := range cts {
			workers := eligibleStrategy(scn, ct.tk, k, nil)
			if len(workers) == 0 {
				continue
			}
			// Full aggregation (consume every answer).
			rngB := newRng(90_000 + int64(i))
			// The simulation's only error is the context's, and Background is never cancelled.
			run, _ := crowd.RunTaskCtx(context.Background(), ct.tk, workers, ct.truthSet, fam, model, 0, rngB, nil)
			binAnswers += float64(run.AnswersUsed)
			if run.Resolved == ct.bestIdx {
				binHits++
			}
			// With early stop at 0.95 (the production setting).
			rngE := newRng(90_000 + int64(i))
			runES, _ := crowd.RunTaskCtx(context.Background(), ct.tk, workers, ct.truthSet, fam, model, 0.95, rngE, nil)
			esAnswers += float64(runES.AnswersUsed)
			if runES.Resolved == ct.bestIdx {
				esHits++
			}
			rngM := newRng(90_000 + int64(i))
			if multipleChoiceRun(ct, workers, fam, model, rngM) == ct.bestIdx {
				mcHits++
			}
			mcAnswers += float64(len(workers))
		}
		total := float64(len(cts))
		tbl.AddRow(d(n), d(len(cts)),
			f2(float64(binHits)/total*100), f2(float64(esHits)/total*100), f2(float64(mcHits)/total*100),
			f2(binAnswers/total), f2(esAnswers/total), f2(mcAnswers/total))
	}
	tbl.Notes = append(tbl.Notes,
		"MC = one n-way map question per worker (per-worker accuracy a^(n-1)), plurality vote",
		"binary = ID3 tree consuming all answers; binary-ES = same with early stop 0.95",
		"expected shape: binary >= MC with the gap widening as n grows; early stop trades a little accuracy for ~half the answers")
	return tbl
}
