package core

import (
	"sort"
	"strings"
	"sync"

	"crowdplanner/internal/roadnet"
	"crowdplanner/internal/task"
)

// Source-reliability tracking implements the paper's stated future work —
// "quality control of popular route mining algorithms" (§VI) — inside the
// control logic: every time a request is resolved with high confidence
// (agreement, confidence gate, or crowd), each candidate source is credited
// with a win or a loss depending on whether its proposal matched the
// verified route. The scoreboard is served on GET /v1/sources.

// SourceStats is the running scoreboard of one candidate source.
type SourceStats struct {
	Source string
	Wins   int
	Total  int
}

// Precision returns the Laplace-smoothed win rate, in (0,1); an unseen
// source scores 0.5 (no evidence either way).
func (s SourceStats) Precision() float64 {
	return (float64(s.Wins) + 1) / (float64(s.Total) + 2)
}

// reliabilityTracker accumulates per-source outcomes. Safe for concurrent
// use.
type reliabilityTracker struct {
	mu sync.Mutex
	//cplint:guardedby mu
	stats map[string]*SourceStats
}

func newReliabilityTracker() *reliabilityTracker {
	return &reliabilityTracker{stats: make(map[string]*SourceStats)}
}

// record credits every provider behind each candidate: sources whose route
// matched the verified winner win, the rest lose. Deduplicated provider
// names (e.g. "ws-fastest+MFP") credit each constituent.
func (t *reliabilityTracker) record(cands []task.Candidate, winner roadnet.Route) {
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, c := range cands {
		won := c.Route.Equal(winner)
		for _, src := range strings.Split(c.Source, "+") {
			if src == "" {
				continue
			}
			s, ok := t.stats[src]
			if !ok {
				s = &SourceStats{Source: src}
				t.stats[src] = s
			}
			s.Total++
			if won {
				s.Wins++
			}
		}
	}
}

// snapshot returns the scoreboard sorted by source name.
func (t *reliabilityTracker) snapshot() []SourceStats {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]SourceStats, 0, len(t.stats))
	for _, s := range t.stats {
		out = append(out, *s)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Source < out[j].Source })
	return out
}
