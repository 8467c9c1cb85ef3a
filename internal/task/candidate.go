// Package task implements CrowdPlanner's task generation component: given a
// set of candidate routes, it selects a small set of highly significant
// landmarks that discriminates the candidates (paper §III-B, via brute
// force, Incremental Landmark Selecting, or GreedySelecting) and orders the
// resulting binary questions with an ID3 decision tree built on information
// strength (paper §III-C).
package task

import (
	"errors"
	"fmt"
	"sort"

	"crowdplanner/internal/calibrate"
	"crowdplanner/internal/landmark"
	"crowdplanner/internal/roadnet"
)

// Candidate is one candidate route under evaluation, with its landmark-based
// form and provenance.
type Candidate struct {
	Source string // which provider proposed it ("shortest", "MPR", ...)
	Route  roadnet.Route
	LRoute calibrate.LandmarkRoute
	// Prior is the prior probability that this candidate is the best route
	// (e.g. from the TR module's confidence scores). Zero priors are
	// replaced by a uniform distribution.
	Prior float64
}

// ErrTooManyCandidates limits tasks to 64 candidates (bitmask width); real
// tasks have a handful.
var ErrTooManyCandidates = errors.New("task: more than 64 candidate routes")

// ErrNoCandidates is returned for empty candidate sets.
var ErrNoCandidates = errors.New("task: no candidate routes")

// ErrNotDiscriminable is returned when two candidates pass exactly the same
// landmarks, so no landmark set can tell them apart. Callers should merge
// such candidates first (see MergeIndistinguishable).
var ErrNotDiscriminable = errors.New("task: candidates are landmark-indistinguishable")

// MergeIndistinguishable collapses candidates whose landmark sets are
// identical, keeping the one with the highest prior (ties: first). The
// returned slice preserves the original order of survivors; merged
// candidates transfer their prior mass to the survivor.
func MergeIndistinguishable(cands []Candidate) []Candidate {
	type group struct {
		idx   int
		prior float64
	}
	byKey := map[string]*group{}
	keys := make([]string, len(cands))
	for i, c := range cands {
		ids := make([]landmark.ID, len(c.LRoute.Landmarks))
		copy(ids, c.LRoute.Landmarks)
		sort.Slice(ids, func(a, b int) bool { return ids[a] < ids[b] })
		key := fmt.Sprint(ids)
		keys[i] = key
		if g, ok := byKey[key]; ok {
			g.prior += c.Prior
			if c.Prior > cands[g.idx].Prior {
				g.idx = i
			}
		} else {
			byKey[key] = &group{idx: i, prior: c.Prior}
		}
	}
	seen := map[string]bool{}
	var out []Candidate
	for i := range cands {
		k := keys[i]
		if seen[k] {
			continue
		}
		seen[k] = true
		g := byKey[k]
		surv := cands[g.idx]
		surv.Prior = g.prior
		out = append(out, surv)
	}
	return out
}

// selector holds the bitmask machinery shared by the three selection
// algorithms. Landmarks are the *beneficial* ones — on some but not all
// candidate routes (paper: L = ∪R − ∩R) — sorted by significance descending
// (ties: ID ascending).
type selector struct {
	n      int           // number of candidates
	ids    []landmark.ID // beneficial landmarks, significance-descending
	sigs   []float64     // parallel significances
	member []uint64      // member[j] bit i set ⇔ candidate i passes ids[j]
}

// newSelector builds the selection state. It requires 1..64 candidates that
// are pairwise distinguishable by the beneficial landmarks.
func newSelector(set *landmark.Set, cands []Candidate) (*selector, error) {
	n := len(cands)
	if n == 0 {
		return nil, ErrNoCandidates
	}
	if n > 64 {
		return nil, ErrTooManyCandidates
	}
	full := uint64(1)<<uint(n) - 1

	masks := map[landmark.ID]uint64{}
	for i, c := range cands {
		for _, id := range c.LRoute.Landmarks {
			masks[id] |= 1 << uint(i)
		}
	}
	type entry struct {
		id   landmark.ID
		sig  float64
		mask uint64
	}
	var entries []entry
	for id, m := range masks {
		if m == 0 || m == full {
			continue // non-beneficial: on none or on all
		}
		sig := 0.0
		if l := set.Get(id); l != nil {
			sig = l.Significance
		}
		entries = append(entries, entry{id: id, sig: sig, mask: m})
	}
	sort.Slice(entries, func(a, b int) bool {
		if entries[a].sig != entries[b].sig {
			return entries[a].sig > entries[b].sig
		}
		return entries[a].id < entries[b].id
	})

	s := &selector{n: n}
	for _, e := range entries {
		s.ids = append(s.ids, e.id)
		s.sigs = append(s.sigs, e.sig)
		s.member = append(s.member, e.mask)
	}
	if n > 1 && !s.discriminative(allIndices(len(s.ids))) {
		return nil, ErrNotDiscriminable
	}
	return s, nil
}

func allIndices(m int) []int {
	idx := make([]int, m)
	for i := range idx {
		idx[i] = i
	}
	return idx
}

// discriminative reports whether the landmark subset (indices into s.ids)
// separates every pair of candidates (paper Definition 4).
func (s *selector) discriminative(subset []int) bool {
	if s.n <= 1 {
		return true
	}
	if len(subset) <= 64 {
		// Fast path: per-candidate signature over the subset fits a word.
		keys := make([]uint64, s.n)
		for p, j := range subset {
			m := s.member[j]
			for i := 0; i < s.n; i++ {
				if m>>uint(i)&1 == 1 {
					keys[i] |= 1 << uint(p)
				}
			}
		}
		return distinct(keys)
	}
	// General path (only reachable from the full-set sanity check): pairwise
	// search for a separating landmark.
	for i := 1; i < s.n; i++ {
		for k := 0; k < i; k++ {
			sep := false
			for _, j := range subset {
				if (s.member[j]>>uint(i))&1 != (s.member[j]>>uint(k))&1 {
					sep = true
					break
				}
			}
			if !sep {
				return false
			}
		}
	}
	return true
}

// distinct reports whether the candidates' subset signatures are pairwise
// different, i.e. whether the subset they were built over is
// discriminative.
func distinct(keys []uint64) bool {
	for i := 1; i < len(keys); i++ {
		for k := 0; k < i; k++ {
			if keys[i] == keys[k] {
				return false
			}
		}
	}
	return true
}

// value is the paper's objective: mean significance of the subset.
func (s *selector) value(subset []int) float64 {
	if len(subset) == 0 {
		return 0
	}
	var sum float64
	for _, j := range subset {
		sum += s.sigs[j]
	}
	return sum / float64(len(subset))
}

// kmax is the paper's upper bound on |L|: the number of candidates (capped
// by the number of beneficial landmarks).
func (s *selector) kmax() int {
	k := s.n
	if m := len(s.ids); m < k {
		k = m
	}
	return k
}

// SelectedIDs maps subset indices to landmark IDs.
func (s *selector) selectedIDs(subset []int) []landmark.ID {
	out := make([]landmark.ID, len(subset))
	for i, j := range subset {
		out[i] = s.ids[j]
	}
	return out
}
