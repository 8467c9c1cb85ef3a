package worker

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"testing"

	"crowdplanner/internal/landmark"
)

// refTopKEligible is the map-and-sort selection TopKEligible replaced: it
// builds every task landmark's column of eligible candidates and sorts it
// on every call. It is the oracle TopKEligible must equal exactly, scores
// bit for bit and ties in the same order.
func refTopKEligible(pool *Pool, mstar *Matrix, taskLandmarks []landmark.ID, k int, cfg SelectConfig) []Ranked {
	if k <= 0 || len(taskLandmarks) == 0 {
		return nil
	}
	// Conditions 1 & 2: quota and response time.
	eligible := make(map[int]bool, pool.Len())
	for i, w := range pool.Workers {
		if cfg.MaxOutstanding > 0 && w.Outstanding >= cfg.MaxOutstanding {
			continue
		}
		if w.ResponseProb(cfg.DeadlineMinutes) < cfg.EtaTime {
			continue
		}
		eligible[i] = true
	}
	if len(eligible) == 0 {
		return nil
	}

	// Condition 3: candidate workers W = ∪_l W_l restricted to eligible.
	type wf struct {
		worker int
		f      float64
	}
	perLandmark := make([][]wf, 0, len(taskLandmarks))
	candidates := map[int]bool{}
	for _, lid := range taskLandmarks {
		var col []wf
		for i := range pool.Workers {
			if !eligible[i] {
				continue
			}
			if f, ok := mstar.Get(i, int(lid)); ok && f > 0 {
				col = append(col, wf{worker: i, f: f})
				candidates[i] = true
			}
		}
		perLandmark = append(perLandmark, col)
	}
	if len(candidates) == 0 {
		return nil
	}

	// Rated voting: each landmark ranks its knowledgeable candidates and
	// awards preference 1 − (rank−1)/|W_l|.
	scores := map[int]float64{}
	for _, col := range perLandmark {
		sort.Slice(col, func(a, b int) bool {
			if col[a].f != col[b].f {
				return col[a].f > col[b].f
			}
			return col[a].worker < col[b].worker
		})
		n := float64(len(col))
		for rank, entry := range col {
			pref := 1 - float64(rank)/n
			scores[entry.worker] += pref
		}
	}

	ranked := make([]Ranked, 0, len(scores))
	for wi, s := range scores {
		ranked = append(ranked, Ranked{Worker: pool.Workers[wi], Score: s})
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

// selectInput is one TopKEligible call.
type selectInput struct {
	pool *Pool
	m    *Matrix
	lids []landmark.ID
	k    int
	cfg  SelectConfig
}

// byteReader hands out bytes and yields zeros once they run out, so every
// byte string decodes to some input.
type byteReader []byte

func (r *byteReader) next() int {
	if len(*r) == 0 {
		return 0
	}
	b := (*r)[0]
	*r = (*r)[1:]
	return int(b)
}

// decodeSelectInput turns bytes into a selection input that exercises the
// cases where a faster selection could part from the reference: tied,
// zero, negative and unobserved entries; duplicate task landmarks and ones
// outside the matrix (−1 and ≥ Landmarks); pools larger and smaller than
// the matrix; worker IDs that differ from pool indices; k from 0 past the
// candidate count, and unbounded; every worker at quota or too slow.
func decodeSelectInput(data []byte) selectInput {
	r := byteReader(data)
	// Past 12 workers a ranking is sorted by pdqsort proper rather than by
	// its (stable) insertion sort, so a missing tie-break can show.
	workers, landmarks := r.next()%41, r.next()%11
	poolSize := max(0, workers+r.next()%7-3)
	mode := r.next()

	cfg := SelectConfig{
		MaxOutstanding:  r.next() % 7,
		EtaTime:         []float64{0, 0.5, 0.7, 0.99}[r.next()%4],
		DeadlineMinutes: []float64{0, 10, 60}[r.next()%3],
	}
	// Worker IDs are a rotation of the pool indices, so a tie broken by
	// index instead of ID shows.
	rot := r.next()
	pool := &Pool{}
	for i := 0; i < poolSize; i++ {
		w := &Worker{
			ID:          ID((i + rot) % poolSize),
			Outstanding: r.next() % 8,
			Lambda:      []float64{0, 1e-4, 0.02, 0.05, 1}[r.next()%5],
		}
		switch mode % 8 {
		case 0: // every worker at quota
			cfg.MaxOutstanding = max(cfg.MaxOutstanding, 1)
			w.Outstanding = cfg.MaxOutstanding
		case 1: // every worker too slow to answer in time
			w.Lambda = 0
		}
		pool.Workers = append(pool.Workers, w)
	}

	m := NewMatrix(workers, landmarks)
	for w := 0; w < workers; w++ {
		for l := 0; l < landmarks; l++ {
			switch c := r.next(); {
			case c < 80: // unobserved
			case c < 100:
				m.Set(w, l, 0)
			case c < 120:
				m.Set(w, l, -float64(c%4+1)/4)
			case c < 200: // few distinct values, so ties are common
				m.Set(w, l, float64(c%4+1)/4)
			default:
				m.Set(w, l, float64(c)/7)
			}
		}
	}

	var lids []landmark.ID
	for n := r.next() % 9; n > 0; n-- {
		lids = append(lids, landmark.ID(r.next()%(landmarks+3)-1))
	}
	k := r.next() % (poolSize + 3)
	if mode%16 == 15 {
		k = math.MaxInt
	}
	return selectInput{pool: pool, m: m, lids: lids, k: k, cfg: cfg}
}

func checkAgainstReference(t *testing.T, in selectInput) {
	t.Helper()
	got := TopKEligible(in.pool, in.m, in.lids, in.k, in.cfg)
	want := refTopKEligible(in.pool, in.m, in.lids, in.k, in.cfg)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("TopKEligible(k=%d, lids=%v, cfg=%+v) =\n%s\nreference:\n%s",
			in.k, in.lids, in.cfg, fmtRanked(got), fmtRanked(want))
	}
}

func fmtRanked(rs []Ranked) string {
	if rs == nil {
		return "  nil"
	}
	var b strings.Builder
	for _, r := range rs {
		fmt.Fprintf(&b, "  worker %d score %x\n", r.Worker.ID, r.Score)
	}
	return b.String()
}

func TestTopKEligibleMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(18))
	buf := make([]byte, 1024)
	for i := 0; i < 5000; i++ {
		rng.Read(buf)
		checkAgainstReference(t, decodeSelectInput(buf))
	}
}

// FuzzTopKEligible's seed corpus (testdata/fuzz/FuzzTopKEligible) holds one
// input per selection mutation the fuzzer has caught: a tie broken by value
// only, in a ranking or among the k winners; n counted over ineligible
// workers too; landmarks summed in another order; non-positive entries
// ranked; k left unclamped.
func FuzzTopKEligible(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		checkAgainstReference(t, decodeSelectInput(data))
	})
}
