package truth

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"crowdplanner/internal/geo"
	"crowdplanner/internal/roadnet"
	"crowdplanner/internal/routing"
)

// seedCity fills a database with n truths over a generated city,
// deterministically.
func seedCity(tb testing.TB, db *DB, g *roadnet.Graph, n int) {
	tb.Helper()
	rng := rand.New(rand.NewSource(7))
	nn := roadnet.NodeID(g.NumNodes())
	for i := 0; i < n; i++ {
		from := roadnet.NodeID(rng.Intn(int(nn)))
		to := roadnet.NodeID(rng.Intn(int(nn)))
		if from == to {
			to = (to + 1) % nn
		}
		db.Store(Entry{
			From: from, To: to, Slot: rng.Intn(24),
			Route:      roadnet.NewRoute(from, to),
			Confidence: 0.5 + rng.Float64()/2,
			Crowd:      i%3 == 0,
		})
	}
}

// scanNear is the linear-scan oracle for Near: every stored truth is
// filtered by slot and endpoint distance, and the matches are stable-sorted
// by combined endpoint distance.
func scanNear(db *DB, g *roadnet.Graph, from, to roadnet.NodeID, t routing.SimTime, radius float64, slotTol int) []Entry {
	slot := t.Slot(Slots)
	fp, tp := g.Node(from).Pt, g.Node(to).Pt
	type scored struct {
		e Entry
		d float64
	}
	var out []scored
	for _, e := range db.Entries() {
		df := geo.Dist(g.Node(e.From).Pt, fp)
		dt := geo.Dist(g.Node(e.To).Pt, tp)
		if slotDist(e.Slot, slot, Slots) > slotTol || df > radius || dt > radius {
			continue
		}
		out = append(out, scored{e, df + dt})
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].d < out[j].d })
	res := make([]Entry, len(out))
	for i, s := range out {
		res[i] = s.e
	}
	return res
}

// TestIndexedNearMatchesLinear is the correctness anchor for the spatial
// index: for many random queries Near must return exactly what the linear
// scan returns, in the same order.
func TestIndexedNearMatchesLinear(t *testing.T) {
	g := roadnet.Generate(roadnet.DefaultGenConfig())
	db := NewDB(g, 600)
	seedCity(t, db, g, 3000)

	rng := rand.New(rand.NewSource(9))
	nn := g.NumNodes()
	for q := 0; q < 200; q++ {
		from := roadnet.NodeID(rng.Intn(nn))
		to := roadnet.NodeID(rng.Intn(nn))
		tm := routing.At(rng.Intn(7), rng.Intn(24), 0)
		radius := []float64{150, 600, 2000}[q%3]
		want := scanNear(db, g, from, to, tm, radius, 1)
		got := db.Near(g, from, to, tm, radius, 1)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("query %d (from=%d to=%d r=%.0f): indexed %d entries, linear %d",
				q, from, to, radius, len(got), len(want))
		}
	}
}

// TestIndexedConfidenceMatchesLinear: Confidence rides on Near and must be
// bit-identical to scoring against the linear scan.
func TestIndexedConfidenceMatchesLinear(t *testing.T) {
	g := roadnet.Generate(roadnet.DefaultGenConfig())
	db := NewDB(g, 600)
	seedCity(t, db, g, 2000)

	rng := rand.New(rand.NewSource(11))
	nn := roadnet.NodeID(g.NumNodes())
	for q := 0; q < 50; q++ {
		from := roadnet.NodeID(rng.Intn(int(nn)))
		to := roadnet.NodeID(rng.Intn(int(nn)))
		if from == to {
			continue
		}
		cand := roadnet.NewRoute(from, to)
		tm := routing.At(rng.Intn(7), rng.Intn(24), 0)
		want := scoreAgainst(g, cand, scanNear(db, g, from, to, tm, 600, 1), 600)
		got := db.Confidence(g, cand, tm, 600, 1)
		if got != want {
			t.Fatalf("query %d: confidence %v != %v", q, got, want)
		}
	}
}

func TestEntriesRange(t *testing.T) {
	db := NewDB(corridor(), 100)
	for i := 0; i < 10; i++ {
		db.Store(Entry{From: 0, To: 3, Slot: i, Route: top(), Confidence: 0.9})
	}
	page, total := db.EntriesRange(4, 3)
	if total != 10 || len(page) != 3 {
		t.Fatalf("range(4,3): %d entries, total %d", len(page), total)
	}
	if page[0].Slot != 4 || page[2].Slot != 6 {
		t.Fatalf("page slots = %d..%d, want 4..6", page[0].Slot, page[2].Slot)
	}
	if page, total := db.EntriesRange(20, 5); total != 10 || page == nil || len(page) != 0 {
		t.Fatalf("past-the-end range = %v (total %d), want empty non-nil", page, total)
	}
	if page, _ := db.EntriesRange(8, 0); len(page) != 2 {
		t.Fatalf("limit<=0 should return the tail, got %d", len(page))
	}
	if page, _ := db.EntriesRange(-2, 2); len(page) != 2 || page[0].Slot != 0 {
		t.Fatalf("negative offset should clamp to 0, got %+v", page)
	}
}

// ---- benchmarks: the grid index at 100k truths ----

var benchGraph *roadnet.Graph

func seededDB(b *testing.B) (*roadnet.Graph, *DB) {
	b.Helper()
	if benchGraph == nil {
		benchGraph = roadnet.Generate(roadnet.DefaultGenConfig())
	}
	db := NewDB(benchGraph, 600)
	seedCity(b, db, benchGraph, 100_000)
	return benchGraph, db
}

func BenchmarkTruthNear100k(b *testing.B) {
	g, db := seededDB(b)
	nn := roadnet.NodeID(g.NumNodes())
	tm := routing.At(0, 8, 30)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		from := roadnet.NodeID(i) % nn
		to := (from + nn/2) % nn
		_ = db.Near(g, from, to, tm, 600, 1)
	}
}

func BenchmarkConfidence100k(b *testing.B) {
	g, db := seededDB(b)
	nn := roadnet.NodeID(g.NumNodes())
	tm := routing.At(0, 8, 30)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		from := roadnet.NodeID(i) % nn
		to := (from + nn/3) % nn
		_ = db.Confidence(g, roadnet.NewRoute(from, to), tm, 600, 1)
	}
}
