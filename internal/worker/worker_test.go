package worker

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"crowdplanner/internal/geo"
	"crowdplanner/internal/landmark"
)

// lmGrid builds a row of point landmarks 500 m apart at y=0.
func lmGrid(n int) *landmark.Set {
	ls := make([]*landmark.Landmark, n)
	for i := range ls {
		ls[i] = &landmark.Landmark{
			ID:           landmark.ID(i),
			Pt:           geo.Point{X: float64(i) * 500},
			Significance: 0.5,
		}
	}
	return landmark.NewSet(ls)
}

func TestResponseProb(t *testing.T) {
	w := &Worker{Lambda: 0.1}
	if got := w.ResponseProb(0); got != 0 {
		t.Errorf("t=0 => %v", got)
	}
	p10 := w.ResponseProb(10)
	want := 1 - math.Exp(-1)
	if math.Abs(p10-want) > 1e-9 {
		t.Errorf("P(10) = %v, want %v", p10, want)
	}
	if w.ResponseProb(100) <= p10 {
		t.Error("longer deadline should raise probability")
	}
	if (&Worker{}).ResponseProb(10) != 0 {
		t.Error("zero lambda should never respond")
	}
}

func TestRecordAnswer(t *testing.T) {
	w := &Worker{}
	w.RecordAnswer(3, true)
	w.RecordAnswer(3, false)
	w.RecordAnswer(3, true)
	h := w.History[3]
	if h.Correct != 2 || h.Wrong != 1 {
		t.Errorf("history = %+v", h)
	}
}

func TestScoreProfileProximity(t *testing.T) {
	lms := lmGrid(5)
	cfg := DefaultFamiliarityConfig()
	near := &Worker{Profile: Profile{Home: geo.Point{X: 0}, Work: geo.Point{X: 10000}}}
	far := &Worker{Profile: Profile{Home: geo.Point{X: 10000}, Work: geo.Point{X: 10000}}}
	l0 := lms.Get(0)
	if Score(near, l0, cfg) <= Score(far, l0, cfg) {
		t.Error("living near a landmark should raise familiarity")
	}
	// Beyond EtaDis the profile term vanishes entirely.
	if got := Score(far, l0, cfg); got != 0 {
		t.Errorf("far worker score = %v, want 0", got)
	}
}

func TestScoreHistoryTerm(t *testing.T) {
	lms := lmGrid(3)
	cfg := DefaultFamiliarityConfig()
	w := &Worker{Profile: Profile{Home: geo.Point{X: 99999}, Work: geo.Point{X: 99999}}}
	l := lms.Get(0)
	if Score(w, l, cfg) != 0 {
		t.Error("no profile, no history -> 0")
	}
	w.RecordAnswer(0, true)
	s1 := Score(w, l, cfg)
	if math.Abs(s1-(1-cfg.Alpha)) > 1e-9 {
		t.Errorf("one correct = %v, want %v", s1, 1-cfg.Alpha)
	}
	w.RecordAnswer(0, false)
	s2 := Score(w, l, cfg)
	if math.Abs(s2-(1-cfg.Alpha)*(1+cfg.Beta)) > 1e-9 {
		t.Errorf("correct+wrong = %v, want %v", s2, (1-cfg.Alpha)*(1+cfg.Beta))
	}
	// Wrong answers still add (β > 0) but less than correct ones.
	if s2-s1 >= s1 {
		t.Error("a wrong answer should gain less than a correct one")
	}
}

func TestBuildMatrix(t *testing.T) {
	lms := lmGrid(10)
	pool := &Pool{Workers: []*Worker{
		{ID: 0, Profile: Profile{Home: geo.Point{X: 0}, Work: geo.Point{X: 0}}},
		{ID: 1, Profile: Profile{Home: geo.Point{X: 99999}, Work: geo.Point{X: 99999}},
			History: map[landmark.ID]History{7: {Correct: 3}}},
	}}
	cfg := DefaultFamiliarityConfig()
	m := BuildMatrix(pool, lms, cfg)
	// Worker 0 near landmarks 0..4 (within 2000 m).
	if _, ok := m.Get(0, 0); !ok {
		t.Error("worker 0 should know landmark 0")
	}
	if _, ok := m.Get(0, 9); ok {
		t.Error("worker 0 should not know landmark 9")
	}
	// Worker 1 knows landmark 7 only via history.
	if v, ok := m.Get(1, 7); !ok || v <= 0 {
		t.Error("worker 1 should know landmark 7 from history")
	}
	if _, ok := m.Get(1, 0); ok {
		t.Error("worker 1 should not know landmark 0")
	}
	if m.NonZeros() == 0 || m.Workers != 2 || m.Landmarks != 10 {
		t.Errorf("matrix shape %dx%d nnz=%d", m.Workers, m.Landmarks, m.NonZeros())
	}
}

func TestAccumulateRadiatesKnowledge(t *testing.T) {
	lms := lmGrid(10) // 500 m spacing, EtaDis 2000 covers 4 neighbours
	cfg := DefaultFamiliarityConfig()
	m := NewMatrix(1, 10)
	m.Set(0, 3, 2.0) // knows landmark 3 only
	acc := Accumulate(m, lms, cfg)
	center, ok := acc.Get(0, 3)
	if !ok || center <= 0 {
		t.Fatal("accumulated self familiarity missing")
	}
	near, ok := acc.Get(0, 4)
	if !ok || near <= 0 {
		t.Error("knowledge should radiate to the adjacent landmark")
	}
	if near >= center {
		t.Error("adjacent familiarity should be below the center's")
	}
	if _, ok := acc.Get(0, 9); ok {
		t.Error("knowledge must not radiate beyond EtaDis")
	}
}

func TestGeneratePoolDeterministic(t *testing.T) {
	lms := lmGrid(20)
	bounds := geo.BBox{Min: geo.Point{}, Max: geo.Point{X: 10000, Y: 10000}}
	cfg := DefaultGenConfig()
	cfg.NumWorkers = 40
	p1 := GeneratePool(bounds, lms, cfg)
	p2 := GeneratePool(bounds, lms, cfg)
	if p1.Len() != 40 || p2.Len() != 40 {
		t.Fatalf("pool sizes %d/%d", p1.Len(), p2.Len())
	}
	for i := range p1.Workers {
		if p1.Workers[i].Profile.Home != p2.Workers[i].Profile.Home ||
			p1.Workers[i].Lambda != p2.Workers[i].Lambda {
			t.Fatalf("worker %d differs", i)
		}
		if p1.Workers[i].Lambda <= 0 {
			t.Errorf("worker %d lambda = %v", i, p1.Workers[i].Lambda)
		}
	}
	if p1.Get(0) == nil || p1.Get(999) != nil || p1.Get(-1) != nil {
		t.Error("Get bounds check failed")
	}
}

func TestPMFRecoversLatentStructure(t *testing.T) {
	// The paper's motivating example: workers similar to others who know a
	// landmark should be predicted to know it too. Ten "complete" workers
	// know landmarks 0,1,2 equally; worker 10 is observed on 0,1 only.
	m := NewMatrix(11, 3)
	for w := 0; w < 10; w++ {
		m.Set(w, 0, 1)
		m.Set(w, 1, 1)
		m.Set(w, 2, 1)
	}
	m.Set(10, 0, 1)
	m.Set(10, 1, 1)
	model := FitPMF(m, DefaultPMFConfig())
	pred := model.Predict(10, 2)
	if pred < 0.5 {
		t.Errorf("PMF should infer worker 10 knows landmark 2: pred = %v", pred)
	}
	// Training error should be small.
	if rmse := RMSE(m, model); rmse > 0.2 {
		t.Errorf("training RMSE = %v", rmse)
	}
}

func TestPMFImprovesOverInit(t *testing.T) {
	m := NewMatrix(20, 15)
	for w := 0; w < 20; w++ {
		for l := 0; l < 15; l++ {
			if (w+l)%3 == 0 {
				m.Set(w, l, float64(w%4)*0.3+0.2)
			}
		}
	}
	cfg := DefaultPMFConfig()
	init := FitPMF(m, PMFConfig{Factors: cfg.Factors, Iters: 1, LearnRate: 1e-9, Seed: cfg.Seed})
	trained := FitPMF(m, cfg)
	if RMSE(m, trained) >= RMSE(m, init) {
		t.Errorf("training should reduce RMSE: %v vs %v", RMSE(m, trained), RMSE(m, init))
	}
}

func TestDensifyKeepsObserved(t *testing.T) {
	m := NewMatrix(5, 5)
	m.Set(0, 0, 0.7)
	model := FitPMF(m, DefaultPMFConfig())
	dense := Densify(m, model, 0.01)
	if v, ok := dense.Get(0, 0); !ok || v != 0.7 {
		t.Errorf("observed entry changed: %v %v", v, ok)
	}
	if dense.NonZeros() < m.NonZeros() {
		t.Error("densified matrix lost entries")
	}
}

func TestPMFEmptyMatrix(t *testing.T) {
	m := NewMatrix(3, 3)
	model := FitPMF(m, DefaultPMFConfig())
	if model.Predict(0, 0) < 0 {
		t.Error("prediction must be non-negative")
	}
	if RMSE(m, model) != 0 {
		t.Error("empty RMSE should be 0")
	}
	if model.Predict(-1, 0) != 0 || model.Predict(0, 99) != 0 {
		t.Error("out-of-range predictions should be 0")
	}
}

// ratedVotingFixture reproduces the paper's w1/w2 coverage example: w1 is a
// narrow expert (F=2 on landmark 0 only), w2 has broad shallow knowledge
// (F=0.1 on all ten landmarks).
func ratedVotingFixture() (*Pool, *Matrix, []landmark.ID) {
	pool := &Pool{Workers: []*Worker{
		{ID: 0, Lambda: 1},
		{ID: 1, Lambda: 1},
	}}
	m := NewMatrix(2, 10)
	m.Set(0, 0, 2.0)
	for l := 0; l < 10; l++ {
		m.Set(1, l, 0.1)
	}
	var lids []landmark.ID
	for l := 0; l < 10; l++ {
		lids = append(lids, landmark.ID(l))
	}
	return pool, m, lids
}

func TestTopKEligibleRatedVotingPrefersCoverage(t *testing.T) {
	pool, m, lids := ratedVotingFixture()
	cfg := DefaultSelectConfig()
	got := TopKEligible(pool, m, lids, 1, cfg)
	if len(got) != 1 || got[0].Worker.ID != 1 {
		t.Fatalf("rated voting picked %v, want broad worker 1", got)
	}
	// The naive sum picks the narrow expert instead — the bias the paper
	// calls out.
	naive := SumFamiliarityTopK(pool, m, lids, 1, cfg)
	if len(naive) != 1 || naive[0].Worker.ID != 0 {
		t.Fatalf("sum baseline picked %v, want narrow worker 0", naive)
	}
}

func TestTopKEligibleFilters(t *testing.T) {
	pool, m, lids := ratedVotingFixture()
	cfg := DefaultSelectConfig()

	// Quota: overload worker 1.
	pool.Workers[1].Outstanding = cfg.MaxOutstanding
	got := TopKEligible(pool, m, lids, 2, cfg)
	if len(got) != 1 || got[0].Worker.ID != 0 {
		t.Errorf("quota filter failed: %v", got)
	}
	pool.Workers[1].Outstanding = 0

	// Response time: make worker 0 too slow.
	pool.Workers[0].Lambda = 0.0001
	got = TopKEligible(pool, m, lids, 2, cfg)
	for _, r := range got {
		if r.Worker.ID == 0 {
			t.Error("slow worker should be filtered")
		}
	}
	pool.Workers[0].Lambda = 1

	// No eligible workers at all.
	for _, w := range pool.Workers {
		w.Lambda = 1e-9
	}
	if got := TopKEligible(pool, m, lids, 2, cfg); got != nil {
		t.Errorf("all-slow pool should return nil, got %v", got)
	}
}

func TestTopKEligibleEdgeCases(t *testing.T) {
	pool, m, lids := ratedVotingFixture()
	cfg := DefaultSelectConfig()
	if got := TopKEligible(pool, m, lids, 0, cfg); got != nil {
		t.Error("k=0 should be nil")
	}
	if got := TopKEligible(pool, m, nil, 3, cfg); got != nil {
		t.Error("no landmarks should be nil")
	}
	// k larger than candidates: return all.
	got := TopKEligible(pool, m, lids, 50, cfg)
	if len(got) != 2 {
		t.Errorf("len = %d, want 2", len(got))
	}
	// Scores must be descending.
	for i := 1; i < len(got); i++ {
		if got[i].Score > got[i-1].Score {
			t.Error("scores not descending")
		}
	}
	// Workers with no familiarity on any task landmark are not candidates.
	m2 := NewMatrix(2, 10)
	if got := TopKEligible(pool, m2, lids, 2, cfg); got != nil {
		t.Errorf("no familiarity -> nil, got %v", got)
	}
}

func TestCoverage(t *testing.T) {
	_, m, lids := ratedVotingFixture()
	if c := Coverage(m, 0, lids); math.Abs(c-0.1) > 1e-9 {
		t.Errorf("narrow coverage = %v, want 0.1", c)
	}
	if c := Coverage(m, 1, lids); c != 1 {
		t.Errorf("broad coverage = %v, want 1", c)
	}
	if Coverage(m, 0, nil) != 0 {
		t.Error("empty landmarks coverage should be 0")
	}
}

func TestMatrixBasics(t *testing.T) {
	m := NewMatrix(2, 2)
	m.Set(1, 1, 0.5)
	if v, ok := m.Get(1, 1); !ok || v != 0.5 {
		t.Error("Get after Set failed")
	}
	if _, ok := m.Get(0, 0); ok {
		t.Error("unset entry should be unobserved")
	}
	count := 0
	m.Each(func(w, l int, v float64) {
		count++
		if w != 1 || l != 1 || v != 0.5 {
			t.Errorf("Each yielded %d,%d,%v", w, l, v)
		}
	})
	if count != 1 {
		t.Errorf("Each visited %d entries", count)
	}
}

// TestMatrixEachOrder: Each visits entries in ascending (worker, landmark)
// order, whatever order they were Set in. FitPMF's gradient descent
// consumes entries in Each order, so its factors depend on it.
func TestMatrixEachOrder(t *testing.T) {
	const workers, landmarks = 7, 9
	m := NewMatrix(workers, landmarks)
	for _, i := range rand.New(rand.NewSource(3)).Perm(workers * landmarks) {
		if i%3 != 0 {
			m.Set(i/landmarks, i%landmarks, float64(i))
		}
	}
	prev, n := -1, 0
	m.Each(func(w, l int, v float64) {
		i := w*landmarks + l
		if i <= prev || v != float64(i) {
			t.Fatalf("Each yielded (%d, %d, %v) after entry %d", w, l, v, prev)
		}
		prev = i
		n++
	})
	if n != m.NonZeros() || n != workers*landmarks*2/3 {
		t.Errorf("Each visited %d entries, NonZeros %d", n, m.NonZeros())
	}
}

func TestMatrixGetOutOfRange(t *testing.T) {
	m := NewMatrix(2, 3)
	for w := 0; w < 2; w++ {
		for l := 0; l < 3; l++ {
			m.Set(w, l, 1)
		}
	}
	// (0, 3) would alias (1, 0) in the dense array without the bounds check.
	for _, c := range [][2]int{{-1, 0}, {0, -1}, {2, 0}, {0, 3}, {1, 3}, {2, 3}} {
		if v, ok := m.Get(c[0], c[1]); ok || v != 0 {
			t.Errorf("Get(%d, %d) = %v, %v; want 0, false", c[0], c[1], v, ok)
		}
	}
}

func TestMatrixSetAgainKeepsNonZeros(t *testing.T) {
	m := NewMatrix(2, 2)
	m.Set(1, 0, 0.5)
	m.Set(1, 0, 0)
	m.Set(1, 0, 2)
	if m.NonZeros() != 1 {
		t.Errorf("NonZeros = %d after setting one entry three times", m.NonZeros())
	}
	if v, ok := m.Get(1, 0); !ok || v != 2 {
		t.Errorf("Get = %v, %v; want the last value", v, ok)
	}
}

func TestMatrixSetPanics(t *testing.T) {
	mustPanic := func(name string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s: Set did not panic", name)
			}
		}()
		fn()
	}
	m := NewMatrix(2, 3)
	mustPanic("negative worker", func() { m.Set(-1, 0, 1) })
	mustPanic("worker past the end", func() { m.Set(2, 0, 1) })
	mustPanic("landmark past the end", func() { m.Set(0, 3, 1) })
	m.Set(0, 0, 1)
	m.Freeze()
	mustPanic("frozen by Freeze", func() { m.Set(0, 0, 1) })

	pool, fresh, lids := ratedVotingFixture()
	TopKEligible(pool, fresh, lids, 1, DefaultSelectConfig())
	mustPanic("frozen by TopKEligible", func() { fresh.Set(1, 1, 1) })
}

// TestTopKEligibleConcurrentFirstUse: the first selections on a fresh
// matrix race to build its rankings. Run it under -race.
func TestTopKEligibleConcurrentFirstUse(t *testing.T) {
	pool, m := denseWorld(rand.New(rand.NewSource(9)), 60, 30)
	lids := []landmark.ID{4, 17, 4, 29, 0}
	cfg := DefaultSelectConfig()
	want := refTopKEligible(pool, m, lids, 9, cfg)
	got := make([][]Ranked, 8)
	var wg sync.WaitGroup
	for g := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[g] = TopKEligible(pool, m, lids, 9, cfg)
		}()
	}
	wg.Wait()
	for g := range got {
		if !reflect.DeepEqual(got[g], want) {
			t.Errorf("goroutine %d selected %v, want %v", g, got[g], want)
		}
	}
}

// denseWorld is a pool shaped like the default one (response rates around
// one answer per 15 minutes, some workers near quota) and a fully observed
// familiarity matrix, like a PMF-densified M*.
func denseWorld(rng *rand.Rand, workers, landmarks int) (*Pool, *Matrix) {
	pool := &Pool{}
	for i := 0; i < workers; i++ {
		pool.Workers = append(pool.Workers, &Worker{
			ID:          ID(i),
			Lambda:      1.0 / 15 * math.Exp(0.6*rng.NormFloat64()),
			Outstanding: rng.Intn(7),
		})
	}
	m := NewMatrix(workers, landmarks)
	for w := 0; w < workers; w++ {
		for l := 0; l < landmarks; l++ {
			m.Set(w, l, rng.Float64())
		}
	}
	return pool, m
}

// BenchmarkTopKEligible selects 9 workers on the default pool's shape (300
// workers × 200 landmarks, dense) for tasks of 3 landmarks (the median
// task) and 5 (the 90th percentile), against the map-and-sort reference.
func BenchmarkTopKEligible(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	pool, m := denseWorld(rng, 300, 200)
	m.Freeze()
	cfg := DefaultSelectConfig()
	tasks := make([][]landmark.ID, 64)
	for _, n := range []int{3, 5} {
		for i := range tasks {
			tasks[i] = tasks[i][:0]
			for _, l := range rng.Perm(200)[:n] {
				tasks[i] = append(tasks[i], landmark.ID(l))
			}
		}
		for _, impl := range []struct {
			name string
			fn   func(*Pool, *Matrix, []landmark.ID, int, SelectConfig) []Ranked
		}{{"rankings", TopKEligible}, {"reference", refTopKEligible}} {
			b.Run(fmt.Sprintf("landmarks=%d/%s", n, impl.name), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; b.Loop(); i++ {
					impl.fn(pool, m, tasks[i%len(tasks)], 9, cfg)
				}
			})
		}
	}
}
