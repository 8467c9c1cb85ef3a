package task

import (
	"errors"
	"math"
	"math/bits"
	"sort"
)

// Algorithm names a landmark-selection strategy.
type Algorithm int

// Selection algorithms, in decreasing cost order.
const (
	// BruteForce enumerates every subset up to size n. Exponential;
	// reference implementation for tests and the E3 experiment.
	BruteForce Algorithm = iota
	// ILS is the paper's Incremental Landmark Selecting: bottom-up
	// enumeration of simplest discriminative sets with superset pruning,
	// completed by best-fill supersets.
	ILS
	// Greedy is the paper's GreedySelecting: significance-ordered recursive
	// expansion with tight upper-bound pruning.
	Greedy
)

// String implements fmt.Stringer.
func (a Algorithm) String() string {
	switch a {
	case BruteForce:
		return "BruteForce"
	case ILS:
		return "ILS"
	case Greedy:
		return "Greedy"
	default:
		return "Algorithm(?)"
	}
}

// ErrNoSelection is returned when no discriminative landmark subset of size
// at most n exists (cannot happen for pairwise-distinguishable candidates,
// see the package tests, but kept for safety).
var ErrNoSelection = errors.New("task: no discriminative landmark set within the size bound")

// errTooLarge guards the exponential algorithms against absurd inputs.
var errTooLarge = errors.New("task: too many beneficial landmarks for exhaustive selection")

// bruteForceLimit caps the beneficial-landmark count for BruteForce; beyond
// it the enumeration would exceed billions of subsets.
const bruteForceLimit = 26

// Select runs the chosen algorithm and returns the selected landmark subset
// (as indices into the selector) together with its objective value.
func (s *selector) selectLandmarks(algo Algorithm) ([]int, float64, error) {
	if len(s.ids) == 0 {
		if s.n <= 1 {
			return nil, 0, nil // single candidate: nothing to discriminate
		}
		return nil, 0, ErrNoSelection
	}
	switch algo {
	case BruteForce:
		return s.bruteForce()
	case ILS:
		return s.ils()
	case Greedy:
		return s.greedy()
	default:
		return s.greedy()
	}
}

// bruteForce enumerates all subsets of sizes 1..kmax and returns the
// discriminative one with maximum mean significance. Ties break towards the
// lexicographically smallest index set for determinism.
func (s *selector) bruteForce() ([]int, float64, error) {
	m := len(s.ids)
	if m > bruteForceLimit {
		return nil, 0, errTooLarge
	}
	kmax := s.kmax()
	var best []int
	bestVal := math.Inf(-1)
	subset := make([]int, 0, kmax)
	// Enumerate bitmasks of the m landmarks with popcount <= kmax.
	for mask := uint64(1); mask < uint64(1)<<uint(m); mask++ {
		if bits.OnesCount64(mask) > kmax {
			continue
		}
		subset = subset[:0]
		for j := 0; j < m; j++ {
			if mask>>uint(j)&1 == 1 {
				subset = append(subset, j)
			}
		}
		if !s.discriminative(subset) {
			continue
		}
		v := s.value(subset)
		if v > bestVal+1e-15 || (math.Abs(v-bestVal) <= 1e-15 && lexLess(subset, best)) {
			bestVal = v
			best = append([]int(nil), subset...)
		}
	}
	if best == nil {
		return nil, 0, ErrNoSelection
	}
	return best, bestVal, nil
}

func lexLess(a, b []int) bool {
	if b == nil {
		return true
	}
	for i := 0; i < len(a) && i < len(b); i++ {
		if a[i] != b[i] {
			return a[i] < b[i]
		}
	}
	return len(a) < len(b)
}

// greedy implements GreedySelecting: depth-first expansion in significance
// order. Landmarks are pre-sorted by descending significance, so within a
// DFS chain every added landmark has significance at most the chain's
// current minimum; consequently, once a chain reaches a discriminative set,
// no superset in that chain can beat it and the chain stops (the paper's
// test-step pruning). Subtrees whose best-fill upper bound cannot beat the
// incumbent are pruned (the paper's "tight upper bounds").
//
// The discriminative test runs on per-depth signature rows: row d holds, for
// each candidate, bit p set iff the candidate passes landmark cur[p], p < d.
// Appending a landmark extends the parent row by one bit, so a visited
// subset costs O(n) to sign instead of a rebuild over all of cur.
func (s *selector) greedy() ([]int, float64, error) {
	m := len(s.ids)
	kmax := s.kmax()
	var best []int
	bestVal := math.Inf(-1)

	n := s.n
	rows := make([]uint64, (kmax+1)*n)
	cur := make([]int, 0, kmax)
	var dfs func(sum float64, start int)
	dfs = func(sum float64, start int) {
		d := len(cur)
		parent, row := rows[d*n:(d+1)*n], rows[(d+1)*n:(d+2)*n]
		for j := start; j < m; j++ {
			cur = append(cur, j)
			nsum := sum + s.sigs[j]
			for i, sig := range parent {
				row[i] = sig | (s.member[j]>>uint(i)&1)<<uint(d)
			}
			if distinct(row) {
				v := nsum / float64(len(cur))
				if v > bestVal+1e-15 || (math.Abs(v-bestVal) <= 1e-15 && lexLess(cur, best)) {
					bestVal = v
					best = append([]int(nil), cur...)
				}
				cur = cur[:len(cur)-1]
				continue
			}
			if len(cur) < kmax {
				// Upper bound over all supersets in this subtree: fill with
				// the highest-significance remaining landmarks.
				ub := math.Inf(-1)
				fill := nsum
				for t := 1; t <= kmax-len(cur) && j+t < m; t++ {
					fill += s.sigs[j+t]
					if v := fill / float64(len(cur)+t); v > ub {
						ub = v
					}
				}
				if ub > bestVal+1e-15 {
					dfs(nsum, j+1)
				}
			}
			cur = cur[:len(cur)-1]
		}
	}
	dfs(0, 0)
	if best == nil {
		return nil, 0, ErrNoSelection
	}
	return best, bestVal, nil
}

// ils implements Incremental Landmark Selecting: grow candidate sets one
// landmark at a time (S_{k+1} extends only the non-discriminative members of
// S_k, always with lower-significance landmarks to avoid duplicates); each
// discriminative set found this way is *simplest* (no proper subset is
// discriminative, because such a subset would have stopped its own chain
// earlier). Every simplest discriminative set is then completed to every
// target size with the highest-significance unused landmarks (GetMaxSet) and
// the best completion wins.
//
// Note on fidelity: the paper keeps only the single best simplest set per
// size (Lsim[k]). We evaluate the best-fill completion of *every* simplest
// set, which preserves the paper's structure and pruning while making the
// result exactly optimal (equal to BruteForce; see the property tests).
func (s *selector) ils() ([]int, float64, error) {
	m := len(s.ids)
	kmax := s.kmax()
	var best []int
	bestVal := math.Inf(-1)

	consider := func(subset []int) {
		// GetMaxSet for every target size k >= |subset|.
		sum := 0.0
		for _, j := range subset {
			sum += s.sigs[j]
		}
		in := make(map[int]bool, len(subset))
		for _, j := range subset {
			in[j] = true
		}
		fillSum := sum
		fillSet := append([]int(nil), subset...)
		evaluate := func() {
			v := fillSum / float64(len(fillSet))
			sorted := append([]int(nil), fillSet...)
			sort.Ints(sorted)
			if v > bestVal+1e-15 || (math.Abs(v-bestVal) <= 1e-15 && lexLess(sorted, best)) {
				bestVal = v
				best = sorted
			}
		}
		evaluate()
		for j := 0; j < m && len(fillSet) < kmax; j++ {
			if in[j] {
				continue
			}
			fillSet = append(fillSet, j)
			fillSum += s.sigs[j]
			evaluate()
		}
	}

	// Bottom-up enumeration. Sets are represented as index slices in
	// ascending order (== descending significance).
	frontier := make([][]int, 0, m)
	for j := 0; j < m; j++ {
		frontier = append(frontier, []int{j})
	}
	for k := 1; k <= kmax && len(frontier) > 0; k++ {
		var next [][]int
		for _, S := range frontier {
			if s.discriminative(S) {
				consider(S) // simplest discriminative; prune supersets
				continue
			}
			if k == kmax {
				continue
			}
			last := S[len(S)-1]
			for j := last + 1; j < m; j++ {
				ext := make([]int, len(S)+1)
				copy(ext, S)
				ext[len(S)] = j
				next = append(next, ext)
			}
		}
		frontier = next
	}
	if best == nil {
		return nil, 0, ErrNoSelection
	}
	return best, bestVal, nil
}
