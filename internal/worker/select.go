package worker

import (
	"sort"

	"crowdplanner/internal/landmark"
)

// SelectConfig carries the eligibility thresholds of paper §IV.
type SelectConfig struct {
	// MaxOutstanding is η_#q: workers at or above this many outstanding
	// tasks are skipped (quota condition 1).
	MaxOutstanding int
	// EtaTime is η_time: minimum acceptable probability of answering within
	// the deadline (condition 2).
	EtaTime float64
	// DeadlineMinutes is the user-specified response time t.
	DeadlineMinutes float64
}

// DefaultSelectConfig allows 5 outstanding tasks and requires a 70% chance
// of answering within 60 minutes.
func DefaultSelectConfig() SelectConfig {
	return SelectConfig{MaxOutstanding: 5, EtaTime: 0.7, DeadlineMinutes: 60}
}

// Ranked is a worker with its selection score.
type Ranked struct {
	Worker *Worker
	Score  float64
}

// TopKEligible returns the k most eligible workers for a task asking about
// the given landmarks (paper §IV-C):
//
//  1. filter by quota and by response probability 1 − e^{−λt} ≥ η_time;
//  2. candidate workers are those with accumulated familiarity > 0 on any
//     task landmark;
//  3. every task landmark ranks the candidates by its familiarity column
//     and votes with preference 1 − (rank−1)/|W_l| (rated voting);
//  4. the k workers with the highest summed preference win.
//
// The returned slice is ordered by descending score, ties broken by worker
// ID for determinism. It is nil when no worker is a candidate.
//
// Each landmark's ranking is precomputed (Matrix.Freeze; the first call
// freezes mstar), so a call costs O(|taskLandmarks| × |workers|) and sorts
// nothing but its k winners.
func TopKEligible(pool *Pool, mstar *Matrix, taskLandmarks []landmark.ID, k int, cfg SelectConfig) []Ranked {
	if k <= 0 || len(taskLandmarks) == 0 {
		return nil
	}
	mstar.Freeze()
	// Conditions 1 & 2: quota and response time. The flags also cover any
	// matrix rows past the end of the pool, which are never eligible.
	eligible := make([]bool, max(pool.Len(), mstar.Workers))
	for i, w := range pool.Workers {
		eligible[i] = (cfg.MaxOutstanding <= 0 || w.Outstanding < cfg.MaxOutstanding) &&
			w.ResponseProb(cfg.DeadlineMinutes) >= cfg.EtaTime
	}

	// Condition 3 and rated voting: each landmark's eligible workers, in
	// ranking order, get preference 1 − (rank−1)/|W_l|. A worker's score
	// sums its preferences in task-landmark order, and is positive exactly
	// when the worker is a candidate.
	scores := make([]float64, pool.Len())
	for _, lid := range taskLandmarks {
		col := mstar.ranking(int(lid))
		n := 0
		for _, w := range col {
			if eligible[w] {
				n++
			}
		}
		rank := 0
		for _, w := range col {
			if eligible[w] {
				scores[w] += 1 - float64(rank)/float64(n)
				rank++
			}
		}
	}

	// Condition 4: keep the k best so far in order, inserting each
	// candidate that beats the current k-th.
	better := func(a, b Ranked) bool {
		if a.Score != b.Score {
			return a.Score > b.Score
		}
		return a.Worker.ID < b.Worker.ID
	}
	top := make([]Ranked, 0, min(k, len(scores)))
	for i, s := range scores {
		if s <= 0 {
			continue
		}
		r := Ranked{Worker: pool.Workers[i], Score: s}
		if len(top) < k {
			top = append(top, r)
		} else if better(r, top[k-1]) {
			top[k-1] = r
		} else {
			continue
		}
		for j := len(top) - 1; j > 0 && better(top[j], top[j-1]); j-- {
			top[j], top[j-1] = top[j-1], top[j]
		}
	}
	if len(top) == 0 {
		return nil
	}
	return top
}

// SumFamiliarityTopK is the naive alternative the paper argues against
// (raw familiarity sums bias towards narrow one-landmark experts); kept as
// the ablation baseline for E4/ablation benches.
func SumFamiliarityTopK(pool *Pool, mstar *Matrix, taskLandmarks []landmark.ID, k int, cfg SelectConfig) []Ranked {
	if k <= 0 || len(taskLandmarks) == 0 {
		return nil
	}
	var ranked []Ranked
	for i, w := range pool.Workers {
		if cfg.MaxOutstanding > 0 && w.Outstanding >= cfg.MaxOutstanding {
			continue
		}
		if w.ResponseProb(cfg.DeadlineMinutes) < cfg.EtaTime {
			continue
		}
		var sum float64
		for _, lid := range taskLandmarks {
			if f, ok := mstar.Get(i, int(lid)); ok {
				sum += f
			}
		}
		if sum > 0 {
			ranked = append(ranked, Ranked{Worker: w, Score: sum})
		}
	}
	sort.Slice(ranked, func(a, b int) bool {
		if ranked[a].Score != ranked[b].Score {
			return ranked[a].Score > ranked[b].Score
		}
		return ranked[a].Worker.ID < ranked[b].Worker.ID
	})
	if k > len(ranked) {
		k = len(ranked)
	}
	return ranked[:k]
}

// Coverage reports the fraction of task landmarks on which the worker has
// positive accumulated familiarity — the knowledge-coverage notion behind
// the paper's w1/w2 example.
func Coverage(mstar *Matrix, workerIdx int, taskLandmarks []landmark.ID) float64 {
	if len(taskLandmarks) == 0 {
		return 0
	}
	known := 0
	for _, lid := range taskLandmarks {
		if f, ok := mstar.Get(workerIdx, int(lid)); ok && f > 0 {
			known++
		}
	}
	return float64(known) / float64(len(taskLandmarks))
}
