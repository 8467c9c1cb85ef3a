package worker

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"sync"

	"crowdplanner/internal/geo"
	"crowdplanner/internal/landmark"
)

// FamiliarityConfig carries the constants of the paper's familiarity score
// f_w^l = α·exp{−(d(l,home)+d(l,work)+d(l,fr))/scale} + (1−α)(#correct + β·#wrong).
type FamiliarityConfig struct {
	Alpha float64 // α: weight of profile proximity vs answer history
	Beta  float64 // β < 1: the gain of a wrong answer (still shows exposure)
	// DistScale converts meters to the exponent's unit; the paper leaves
	// units implicit, we use a soft kilometre scale.
	DistScale float64
	// EtaDis (η_dis) is the cutoff beyond which a landmark contributes no
	// knowledge: d(l,·) > EtaDis is treated as +∞ (term vanishes).
	EtaDis float64
}

// DefaultFamiliarityConfig mirrors the paper's qualitative choices. The
// distance constants assume a city a few kilometres across: people know the
// ~800 m around their anchors well and next to nothing beyond.
func DefaultFamiliarityConfig() FamiliarityConfig {
	return FamiliarityConfig{
		Alpha:     0.6,
		Beta:      0.3,
		DistScale: 600,
		EtaDis:    800,
	}
}

// Score computes f_w^l, the raw familiarity of worker w with landmark l.
func Score(w *Worker, l *landmark.Landmark, cfg FamiliarityConfig) float64 {
	// Profile term: distances beyond EtaDis are +∞ (the paper's
	// simplification), which zeroes their exponential contribution. Each
	// profile anchor contributes independently so living near OR working
	// near the landmark is enough.
	var expo float64
	anchors := []geo.Point{w.Profile.Home, w.Profile.Work}
	anchors = append(anchors, w.Profile.Familiar...)
	sum := 0.0
	found := false
	for _, a := range anchors {
		d := geo.Dist(a, l.Pt)
		if d > cfg.EtaDis {
			continue // treated as +∞
		}
		sum += d
		found = true
	}
	if found {
		expo = math.Exp(-sum / cfg.DistScale)
	}
	// History term.
	h := w.History[l.ID]
	hist := float64(h.Correct) + cfg.Beta*float64(h.Wrong)
	return cfg.Alpha*expo + (1-cfg.Alpha)*hist
}

// Matrix is the worker×landmark familiarity matrix M of the paper, stored
// densely: a worker-major value array plus an observed flag per entry. An
// entry is observed once Set, whatever its value; Get, Each and NonZeros see
// observed entries only.
//
// TopKEligible reads per-landmark rankings: for every landmark, the workers
// with a positive entry, by value (descending) then worker index. Freeze
// builds them, once; TopKEligible freezes a matrix on first use. A frozen
// matrix is read-only, and Set on it panics.
type Matrix struct {
	Workers   int
	Landmarks int
	vals      []float64 // vals[w*Landmarks+l]
	seen      []bool    // whether vals[w*Landmarks+l] is observed
	nnz       int

	freeze sync.Once
	frozen bool
	// Landmark l's ranking is ranked[rankAt[l]:rankAt[l+1]], worker indices.
	rankAt []int32
	ranked []int32
}

// NewMatrix creates an empty matrix of the given shape.
func NewMatrix(workers, landmarks int) *Matrix {
	return &Matrix{
		Workers:   workers,
		Landmarks: landmarks,
		vals:      make([]float64, workers*landmarks),
		seen:      make([]bool, workers*landmarks),
	}
}

func (m *Matrix) inRange(w, l int) bool {
	return w >= 0 && w < m.Workers && l >= 0 && l < m.Landmarks
}

// Set stores a familiarity value. It panics when (w, l) is outside the
// matrix or the matrix is frozen.
func (m *Matrix) Set(w, l int, v float64) {
	if !m.inRange(w, l) {
		panic(fmt.Sprintf("worker: Set(%d, %d) outside a %dx%d matrix", w, l, m.Workers, m.Landmarks))
	}
	if m.frozen {
		panic("worker: Set on a frozen matrix")
	}
	i := w*m.Landmarks + l
	if !m.seen[i] {
		m.seen[i] = true
		m.nnz++
	}
	m.vals[i] = v
}

// Get returns the value and whether it is observed; (0, false) outside the
// matrix.
func (m *Matrix) Get(w, l int) (float64, bool) {
	if !m.inRange(w, l) {
		return 0, false
	}
	i := w*m.Landmarks + l
	return m.vals[i], m.seen[i]
}

// NonZeros returns the number of observed entries.
func (m *Matrix) NonZeros() int { return m.nnz }

// Each visits every observed entry in ascending (worker, landmark) order.
// The deterministic order matters: FitPMF's gradient descent consumes
// entries in Each order, and float sums are order-sensitive.
func (m *Matrix) Each(fn func(w, l int, v float64)) {
	for w := 0; w < m.Workers; w++ {
		row := w * m.Landmarks
		for l := 0; l < m.Landmarks; l++ {
			if m.seen[row+l] {
				fn(w, l, m.vals[row+l])
			}
		}
	}
}

// Freeze builds the per-landmark rankings TopKEligible reads and makes the
// matrix read-only. It is idempotent and safe for concurrent use; call it
// before publishing a matrix so no selection pays for the build.
func (m *Matrix) Freeze() {
	m.freeze.Do(func() {
		m.frozen = true
		m.rankAt = make([]int32, m.Landmarks+1)
		m.ranked = make([]int32, 0, m.nnz)
		type entry struct {
			v float64
			w int32
		}
		col := make([]entry, 0, m.Workers)
		for l := 0; l < m.Landmarks; l++ {
			col = col[:0]
			for w := 0; w < m.Workers; w++ {
				if i := w*m.Landmarks + l; m.seen[i] && m.vals[i] > 0 {
					col = append(col, entry{m.vals[i], int32(w)})
				}
			}
			slices.SortFunc(col, func(a, b entry) int {
				return cmp.Or(cmp.Compare(b.v, a.v), cmp.Compare(a.w, b.w))
			})
			m.rankAt[l] = int32(len(m.ranked))
			for _, e := range col {
				m.ranked = append(m.ranked, e.w)
			}
		}
		m.rankAt[m.Landmarks] = int32(len(m.ranked))
	})
}

// ranking returns landmark l's ranking, or nil outside the matrix. The
// matrix must be frozen.
func (m *Matrix) ranking(l int) []int32 {
	if l < 0 || l >= m.Landmarks {
		return nil
	}
	return m.ranked[m.rankAt[l]:m.rankAt[l+1]]
}

// BuildMatrix computes the observed familiarity matrix from worker profiles
// and histories. An entry is observed (stored) when it is positive: either
// the landmark is within profile reach or the worker has history on it.
func BuildMatrix(pool *Pool, lms *landmark.Set, cfg FamiliarityConfig) *Matrix {
	m := NewMatrix(pool.Len(), lms.Len())
	for wi, w := range pool.Workers {
		// Profile reach: landmarks within EtaDis of any anchor.
		anchors := []geo.Point{w.Profile.Home, w.Profile.Work}
		anchors = append(anchors, w.Profile.Familiar...)
		seen := map[landmark.ID]bool{}
		for _, a := range anchors {
			for _, l := range lms.Within(a, cfg.EtaDis) {
				if !seen[l.ID] {
					seen[l.ID] = true
					if v := Score(w, l, cfg); v > 0 {
						m.Set(wi, int(l.ID), v)
					}
				}
			}
		}
		//cplint:ordered-irrelevant -- each unseen landmark is Set once at its own (worker, landmark) entry; dense storage makes Set order invisible
		for lid := range w.History {
			if !seen[lid] {
				if l := lms.Get(lid); l != nil {
					if v := Score(w, l, cfg); v > 0 {
						m.Set(wi, int(lid), v)
					}
				}
			}
		}
	}
	return m
}

// Accumulate computes the accumulated familiarity matrix M*: each (w, l)
// entry is the Gaussian-weighted sum of w's familiarity with l and with all
// landmarks within EtaDis of l — knowing a landmark implies knowing its
// surroundings (paper: F_w^l = Σ δ_l' f_w^l', δ ~ N(d | 0, σ₀²), σ₀ =
// η_dis/3).
func Accumulate(m *Matrix, lms *landmark.Set, cfg FamiliarityConfig) *Matrix {
	sigma := cfg.EtaDis / 3
	if sigma <= 0 {
		sigma = 1
	}
	// The paper weights by N(d | 0, σ₀²); we drop the density's 1/(σ√2π)
	// prefactor so δ(0) = 1 and the accumulated scores stay on the same
	// scale as the raw familiarity scores (the prefactor is a uniform
	// rescaling that would otherwise shrink every score by ~3 orders of
	// magnitude and is irrelevant to the rankings the selection uses).
	gauss := func(d float64) float64 {
		return math.Exp(-d * d / (2 * sigma * sigma))
	}
	// Precompute neighbourhood lists per landmark.
	neighbors := make([][]int, lms.Len())
	weights := make([][]float64, lms.Len())
	for li, l := range lms.All() {
		for _, nb := range lms.Within(l.Pt, cfg.EtaDis) {
			neighbors[li] = append(neighbors[li], int(nb.ID))
			weights[li] = append(weights[li], gauss(geo.Dist(l.Pt, nb.Pt)))
		}
	}
	out := NewMatrix(m.Workers, m.Landmarks)
	// F(w, l') sums over w's observed landmarks l within range of l', in
	// ascending l: float addition is not associative, so the order is part
	// of the result.
	acc := make([]float64, m.Landmarks)
	for w := 0; w < m.Workers; w++ {
		clear(acc)
		row := w * m.Landmarks
		for l := 0; l < m.Landmarks; l++ {
			if !m.seen[row+l] {
				continue
			}
			for i, nb := range neighbors[l] {
				acc[nb] += weights[l][i] * m.vals[row+l]
			}
		}
		for l, v := range acc {
			if v > 0 {
				out.Set(w, l, v)
			}
		}
	}
	return out
}
