package task

import (
	"errors"
	"math"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"crowdplanner/internal/calibrate"
	"crowdplanner/internal/geo"
	"crowdplanner/internal/landmark"
)

// mkSet builds a landmark set where landmark i has the given significance.
func mkSet(sigs ...float64) *landmark.Set {
	ls := make([]*landmark.Landmark, len(sigs))
	for i, s := range sigs {
		ls[i] = &landmark.Landmark{
			ID:           landmark.ID(i),
			Pt:           geo.Point{X: float64(i) * 10},
			Significance: s,
		}
	}
	return landmark.NewSet(ls)
}

// mkCand builds a candidate whose landmark-based route is the given IDs.
func mkCand(src string, prior float64, ids ...landmark.ID) Candidate {
	return Candidate{
		Source: src,
		Prior:  prior,
		LRoute: calibrate.LandmarkRoute{Landmarks: ids},
	}
}

func TestSelectorBeneficialLandmarks(t *testing.T) {
	// Paper's example: R1={l1,l2,l3}, R2={l1,l2,l4}. Beneficial = {l3,l4}.
	set := mkSet(0.9, 0.8, 0.7, 0.6)
	cands := []Candidate{
		mkCand("a", 0, 0, 1, 2),
		mkCand("b", 0, 0, 1, 3),
	}
	sel, err := newSelector(set, cands)
	if err != nil {
		t.Fatal(err)
	}
	if len(sel.ids) != 2 {
		t.Fatalf("beneficial = %v, want {2,3}", sel.ids)
	}
	// Sorted by significance descending: l2 (0.7) then l3 (0.6).
	if sel.ids[0] != 2 || sel.ids[1] != 3 {
		t.Errorf("order = %v", sel.ids)
	}
}

func TestSelectorDiscriminative(t *testing.T) {
	set := mkSet(0.9, 0.8, 0.7, 0.6)
	cands := []Candidate{
		mkCand("a", 0, 0, 1, 2),
		mkCand("b", 0, 0, 1, 3),
	}
	sel, err := newSelector(set, cands)
	if err != nil {
		t.Fatal(err)
	}
	// Both singletons are discriminative (paper: L3={l3}, L4={l4} are
	// simplest discriminative).
	if !sel.discriminative([]int{0}) || !sel.discriminative([]int{1}) {
		t.Error("singletons should be discriminative")
	}
	if !sel.discriminative([]int{0, 1}) {
		t.Error("pair should be discriminative")
	}
	if sel.discriminative(nil) {
		t.Error("empty set should not be discriminative for 2 candidates")
	}
}

func TestSelectorErrors(t *testing.T) {
	set := mkSet(0.5)
	if _, err := newSelector(set, nil); !errors.Is(err, ErrNoCandidates) {
		t.Errorf("err = %v", err)
	}
	// Indistinguishable candidates.
	cands := []Candidate{
		mkCand("a", 0, 0),
		mkCand("b", 0, 0),
	}
	if _, err := newSelector(set, cands); !errors.Is(err, ErrNotDiscriminable) {
		t.Errorf("err = %v", err)
	}
	// 65 candidates.
	many := make([]Candidate, 65)
	if _, err := newSelector(set, many); !errors.Is(err, ErrTooManyCandidates) {
		t.Errorf("err = %v", err)
	}
}

func TestBruteForceKnownOptimum(t *testing.T) {
	// Landmarks: l0 sig .9 on A only; l1 sig .5 on B only; l2 sig .1 on C
	// only. Candidates A={l0}, B={l1}, C={l2}.
	// Any single landmark leaves two candidates identical (both "not on"),
	// so pairs are the simplest discriminative sets. Best: {l0,l1} mean .7.
	set := mkSet(0.9, 0.5, 0.1)
	cands := []Candidate{
		mkCand("A", 0, 0),
		mkCand("B", 0, 1),
		mkCand("C", 0, 2),
	}
	sel, err := newSelector(set, cands)
	if err != nil {
		t.Fatal(err)
	}
	subset, val, err := sel.bruteForce()
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(val-0.7) > 1e-9 {
		t.Errorf("value = %v, want 0.7", val)
	}
	ids := sel.selectedIDs(subset)
	if len(ids) != 2 || ids[0] != 0 || ids[1] != 1 {
		t.Errorf("selected = %v, want [0 1]", ids)
	}
}

func TestSelectionFillBeatsSimplest(t *testing.T) {
	// The case where the optimum is a simplest set plus a high-significance
	// filler: l0 (sig .9) is useless alone but lifts the mean of {l1}.
	// Candidates: A={l0,l1}, B={l0}. Beneficial = {l1} only... make l0
	// asymmetric: A={l0,l1}, B={l0,l2}.
	// Beneficial: l1 (sig .5), l2 (sig .4). Simplest: {l1}, {l2}.
	// Values: {l1}=.5, {l2}=.4, {l1,l2}=.45. Optimum {l1} = .5.
	set := mkSet(0.9, 0.5, 0.4)
	cands := []Candidate{
		mkCand("A", 0, 0, 1),
		mkCand("B", 0, 0, 2),
	}
	sel, err := newSelector(set, cands)
	if err != nil {
		t.Fatal(err)
	}
	for _, algo := range []Algorithm{BruteForce, ILS, Greedy} {
		subset, val, err := sel.selectLandmarks(algo)
		if err != nil {
			t.Fatalf("%v: %v", algo, err)
		}
		if math.Abs(val-0.5) > 1e-9 {
			t.Errorf("%v: value = %v, want 0.5 (subset %v)", algo, val, sel.selectedIDs(subset))
		}
	}
}

func TestSelectionRespectsSizeBound(t *testing.T) {
	// n=2 candidates: |L| must be <= 2 even if more landmarks would raise
	// the mean... (mean can't grow by adding, but verify the bound anyway
	// on a 4-candidate instance).
	set := mkSet(0.9, 0.8, 0.7, 0.6, 0.5, 0.4)
	cands := []Candidate{
		mkCand("A", 0, 0, 1),
		mkCand("B", 0, 1, 2),
		mkCand("C", 0, 2, 3),
		mkCand("D", 0, 3, 4),
	}
	sel, err := newSelector(set, cands)
	if err != nil {
		t.Fatal(err)
	}
	for _, algo := range []Algorithm{BruteForce, ILS, Greedy} {
		subset, _, err := sel.selectLandmarks(algo)
		if err != nil {
			t.Fatalf("%v: %v", algo, err)
		}
		if len(subset) > 4 {
			t.Errorf("%v: |L| = %d exceeds n = 4", algo, len(subset))
		}
		if len(subset) < 2 { // ceil(log2 4) = 2
			t.Errorf("%v: |L| = %d below information bound", algo, len(subset))
		}
		if !sel.discriminative(subset) {
			t.Errorf("%v: selection not discriminative", algo)
		}
	}
}

// randomInstance builds a random selector instance from a seed: n candidates
// over m landmarks with random membership and significances, retrying until
// candidates are pairwise distinguishable.
func randomInstance(seed int64) (*selector, bool) {
	return randomSelector(seed, 5, 10, 2) // 2..6 candidates, 3..12 landmarks
}

// randomSelector is randomInstance with 2..1+nSpread candidates over
// 3..2+mSpread landmarks, each candidate passing each landmark with
// probability 1/oneIn.
func randomSelector(seed int64, nSpread, mSpread, oneIn int) (*selector, bool) {
	rng := rand.New(rand.NewSource(seed))
	n := 2 + rng.Intn(nSpread)
	m := 3 + rng.Intn(mSpread)
	sigs := make([]float64, m)
	for i := range sigs {
		sigs[i] = rng.Float64()
	}
	set := mkSet(sigs...)
	for attempt := 0; attempt < 20; attempt++ {
		cands := make([]Candidate, n)
		for i := range cands {
			var ids []landmark.ID
			for j := 0; j < m; j++ {
				if rng.Intn(oneIn) == oneIn-1 {
					ids = append(ids, landmark.ID(j))
				}
			}
			cands[i] = mkCand("x", rng.Float64(), ids...)
		}
		sel, err := newSelector(set, cands)
		if err == nil {
			return sel, true
		}
	}
	return nil, false
}

func TestPropertyAllAlgorithmsAgree(t *testing.T) {
	f := func(seed int64) bool {
		sel, ok := randomInstance(seed)
		if !ok {
			return true // skip degenerate draws
		}
		bf, bfVal, err1 := sel.bruteForce()
		il, ilVal, err2 := sel.ils()
		gr, grVal, err3 := sel.greedy()
		if (err1 != nil) != (err2 != nil) || (err1 != nil) != (err3 != nil) {
			t.Logf("seed %d: err mismatch %v/%v/%v", seed, err1, err2, err3)
			return false
		}
		if err1 != nil {
			return true
		}
		if math.Abs(bfVal-ilVal) > 1e-9 || math.Abs(bfVal-grVal) > 1e-9 {
			t.Logf("seed %d: values bf=%v ils=%v greedy=%v (bf=%v ils=%v gr=%v)",
				seed, bfVal, ilVal, grVal, bf, il, gr)
			return false
		}
		// All results must be discriminative and within size bounds.
		for _, sub := range [][]int{bf, il, gr} {
			if !sel.discriminative(sub) || len(sub) > sel.kmax() {
				t.Logf("seed %d: invalid subset %v", seed, sub)
				return false
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 150}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

// greedyRef is GreedySelecting with the discriminative check rebuilt from
// the whole chain at every DFS node, the reference for greedy's per-depth
// signature rows.
func (s *selector) greedyRef() ([]int, float64, error) {
	m := len(s.ids)
	kmax := s.kmax()
	var best []int
	bestVal := math.Inf(-1)

	cur := make([]int, 0, kmax)
	var dfs func(sum float64, start int)
	dfs = func(sum float64, start int) {
		for j := start; j < m; j++ {
			cur = append(cur, j)
			nsum := sum + s.sigs[j]
			if s.discriminative(cur) {
				v := nsum / float64(len(cur))
				if v > bestVal+1e-15 || (math.Abs(v-bestVal) <= 1e-15 && lexLess(cur, best)) {
					bestVal = v
					best = append([]int(nil), cur...)
				}
				cur = cur[:len(cur)-1]
				continue
			}
			if len(cur) < kmax {
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

// TestGreedyMatchesReference: on random selectors of up to 17 candidates
// and 30 landmarks, greedy selects exactly what the rebuild-every-signature
// reference selects, and (where brute force is affordable) the optimum.
// Sparse memberships need long chains before a subset discriminates, which
// takes the signature rows past depth 8.
func TestGreedyMatchesReference(t *testing.T) {
	for seed := int64(0); seed < 600; seed++ {
		oneIn := 2
		if seed%3 == 2 {
			oneIn = 7
		}
		sel, ok := randomSelector(seed, 16, 28, oneIn)
		if !ok {
			continue
		}
		got, gotVal, err := sel.greedy()
		want, wantVal, wantErr := sel.greedyRef()
		if (err != nil) != (wantErr != nil) || gotVal != wantVal || !reflect.DeepEqual(got, want) {
			t.Fatalf("seed %d: greedy %v (%v, %v), reference %v (%v, %v)", seed, got, gotVal, err, want, wantVal, wantErr)
		}
		if len(sel.ids) > 14 || err != nil {
			continue
		}
		if _, bfVal, err := sel.bruteForce(); err != nil || math.Abs(bfVal-gotVal) > 1e-9 {
			t.Fatalf("seed %d: greedy value %v, brute force %v (%v)", seed, gotVal, bfVal, err)
		}
	}
}

func TestPropertySelectionIsSubsetOptimalValue(t *testing.T) {
	// The objective value must dominate the value of every simplest
	// discriminative singleton/pair found by scanning (a weaker independent
	// oracle than brute force).
	f := func(seed int64) bool {
		sel, ok := randomInstance(seed)
		if !ok {
			return true
		}
		_, val, err := sel.greedy()
		if err != nil {
			return true
		}
		m := len(sel.ids)
		for i := 0; i < m; i++ {
			if sel.discriminative([]int{i}) && sel.value([]int{i}) > val+1e-9 {
				return false
			}
			for j := i + 1; j < m; j++ {
				sub := []int{i, j}
				if sel.discriminative(sub) && sel.value(sub) > val+1e-9 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestSingleCandidateNeedsNoQuestions(t *testing.T) {
	set := mkSet(0.9)
	cands := []Candidate{mkCand("only", 0, 0)}
	sel, err := newSelector(set, cands)
	if err != nil {
		t.Fatal(err)
	}
	subset, val, err := sel.selectLandmarks(Greedy)
	if err != nil || len(subset) != 0 || val != 0 {
		t.Errorf("single candidate: %v %v %v", subset, val, err)
	}
}

func TestBruteForceTooLarge(t *testing.T) {
	sigs := make([]float64, 40)
	var idsA, idsB []landmark.ID
	for i := range sigs {
		sigs[i] = float64(i) / 40
		if i%2 == 0 {
			idsA = append(idsA, landmark.ID(i))
		} else {
			idsB = append(idsB, landmark.ID(i))
		}
	}
	set := mkSet(sigs...)
	cands := []Candidate{mkCand("A", 0, idsA...), mkCand("B", 0, idsB...)}
	sel, err := newSelector(set, cands)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := sel.bruteForce(); !errors.Is(err, errTooLarge) {
		t.Errorf("err = %v, want errTooLarge", err)
	}
	// Greedy still works.
	if _, _, err := sel.greedy(); err != nil {
		t.Errorf("greedy on wide instance: %v", err)
	}
}

func TestMergeIndistinguishable(t *testing.T) {
	cands := []Candidate{
		mkCand("a", 0.5, 1, 2),
		mkCand("b", 0.3, 2, 1), // same landmark set, different order
		mkCand("c", 0.2, 3),
	}
	merged := MergeIndistinguishable(cands)
	if len(merged) != 2 {
		t.Fatalf("merged = %d candidates", len(merged))
	}
	if merged[0].Source != "a" {
		t.Errorf("survivor = %q, want higher-prior 'a'", merged[0].Source)
	}
	if math.Abs(merged[0].Prior-0.8) > 1e-9 {
		t.Errorf("merged prior = %v, want 0.8", merged[0].Prior)
	}
	if merged[1].Source != "c" {
		t.Errorf("second = %q", merged[1].Source)
	}
	// No-op when all distinct.
	same := MergeIndistinguishable(merged)
	if len(same) != 2 {
		t.Error("idempotent merge failed")
	}
}

func TestAlgorithmString(t *testing.T) {
	if BruteForce.String() != "BruteForce" || ILS.String() != "ILS" ||
		Greedy.String() != "Greedy" || Algorithm(9).String() != "Algorithm(?)" {
		t.Error("Algorithm.String mismatch")
	}
}
