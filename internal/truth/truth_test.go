package truth

import (
	"math"
	"slices"
	"sync"
	"testing"

	"crowdplanner/internal/geo"
	"crowdplanner/internal/roadnet"
	"crowdplanner/internal/routing"
)

// corridor builds two parallel 3-hop corridors between shared endpoints.
func corridor() *roadnet.Graph {
	g := roadnet.NewGraph(8, 20)
	g.AddNode(geo.Point{X: 0, Y: 0})     // 0 source
	g.AddNode(geo.Point{X: 100, Y: 50})  // 1 top
	g.AddNode(geo.Point{X: 200, Y: 50})  // 2 top
	g.AddNode(geo.Point{X: 300, Y: 0})   // 3 dest
	g.AddNode(geo.Point{X: 100, Y: -50}) // 4 bottom
	g.AddNode(geo.Point{X: 200, Y: -50}) // 5 bottom
	g.AddNode(geo.Point{X: 10, Y: 10})   // 6 near source
	g.AddNode(geo.Point{X: 290, Y: 10})  // 7 near dest
	g.AddRoad(0, 1, roadnet.Local, 0, 0)
	g.AddRoad(1, 2, roadnet.Local, 0, 0)
	g.AddRoad(2, 3, roadnet.Local, 0, 0)
	g.AddRoad(0, 4, roadnet.Local, 0, 0)
	g.AddRoad(4, 5, roadnet.Local, 0, 0)
	g.AddRoad(5, 3, roadnet.Local, 0, 0)
	g.AddRoad(6, 0, roadnet.Local, 0, 0)
	g.AddRoad(7, 3, roadnet.Local, 0, 0)
	return g
}

func top() roadnet.Route    { return roadnet.NewRoute(0, 1, 2, 3) }
func bottom() roadnet.Route { return roadnet.NewRoute(0, 4, 5, 3) }

func TestStoreLookup(t *testing.T) {
	db := NewDB(corridor(), 100)
	tm := routing.At(0, 9, 30)
	db.Store(Entry{From: 0, To: 3, Slot: tm.Slot(24), Route: top(), Confidence: 0.9})
	e, ok := db.Lookup(0, 3, tm)
	if !ok || !e.Route.Equal(top()) {
		t.Fatalf("Lookup = %+v, %v", e, ok)
	}
	// Same OD, different hour slot: miss.
	if _, ok := db.Lookup(0, 3, routing.At(0, 15, 0)); ok {
		t.Error("different slot should miss")
	}
	// Different OD: miss.
	if _, ok := db.Lookup(0, 2, tm); ok {
		t.Error("different OD should miss")
	}
	if db.Len() != 1 {
		t.Errorf("Len = %d", db.Len())
	}
}

func TestLookupReturnsLatest(t *testing.T) {
	db := NewDB(corridor(), 100)
	tm := routing.At(0, 9, 0)
	db.Store(Entry{From: 0, To: 3, Slot: tm.Slot(24), Route: top(), Confidence: 0.5})
	db.Store(Entry{From: 0, To: 3, Slot: tm.Slot(24), Route: bottom(), Confidence: 0.9})
	e, ok := db.Lookup(0, 3, tm)
	if !ok || !e.Route.Equal(bottom()) {
		t.Error("Lookup should return the most recent truth")
	}
}

func TestStoreNormalizesSlot(t *testing.T) {
	db := NewDB(corridor(), 100)
	db.Store(Entry{From: 0, To: 3, Slot: 25, Route: top(), Confidence: 1})
	if _, ok := db.Lookup(0, 3, routing.At(0, 1, 30)); !ok {
		t.Error("slot 25 should normalize to slot 1")
	}
	db.Store(Entry{From: 1, To: 3, Slot: -1, Route: top(), Confidence: 1})
	if _, ok := db.Lookup(1, 3, routing.At(0, 23, 30)); !ok {
		t.Error("slot -1 should normalize to slot 23")
	}
}

func TestNearSpatialAndSlotFilters(t *testing.T) {
	g := corridor()
	db := NewDB(g, 100)
	tm := routing.At(0, 9, 0)
	db.Store(Entry{From: 0, To: 3, Slot: tm.Slot(24), Route: top(), Confidence: 1})

	// Query from nearby endpoints (nodes 6,7 are ~15 m away).
	got := db.Near(g, 6, 7, tm, 100, 0)
	if len(got) != 1 {
		t.Fatalf("Near = %d entries, want 1", len(got))
	}
	// Radius too small: no match.
	if got := db.Near(g, 6, 7, tm, 5, 0); len(got) != 0 {
		t.Errorf("tight radius should miss, got %d", len(got))
	}
	// Slot out of tolerance.
	if got := db.Near(g, 6, 7, routing.At(0, 14, 0), 100, 1); len(got) != 0 {
		t.Errorf("slot 14 vs 9 with tol 1 should miss, got %d", len(got))
	}
	// Wider tolerance hits.
	if got := db.Near(g, 6, 7, routing.At(0, 11, 0), 100, 2); len(got) != 1 {
		t.Errorf("slot 11 vs 9 with tol 2 should hit, got %d", len(got))
	}
}

func TestNearOrdering(t *testing.T) {
	g := corridor()
	db := NewDB(g, 100)
	tm := routing.At(0, 9, 0)
	// Exact endpoints and offset endpoints.
	db.Store(Entry{From: 6, To: 7, Slot: tm.Slot(24), Route: roadnet.NewRoute(6, 0, 1, 2, 3, 7), Confidence: 1})
	db.Store(Entry{From: 0, To: 3, Slot: tm.Slot(24), Route: top(), Confidence: 1})
	got := db.Near(g, 0, 3, tm, 200, 0)
	if len(got) != 2 {
		t.Fatalf("Near = %d", len(got))
	}
	if got[0].From != 0 {
		t.Error("exact-endpoint truth should sort first")
	}
}

func TestConfidenceFavorsSimilarRoute(t *testing.T) {
	g := corridor()
	db := NewDB(g, 100)
	tm := routing.At(0, 9, 0)
	db.Store(Entry{From: 0, To: 3, Slot: tm.Slot(24), Route: top(), Confidence: 1})

	cTop := db.Confidence(g, top(), tm, 100, 1)
	cBottom := db.Confidence(g, bottom(), tm, 100, 1)
	if cTop != 1 {
		t.Errorf("confidence of exact truth route = %v, want 1", cTop)
	}
	if cBottom != 0 {
		t.Errorf("confidence of disjoint route = %v, want 0", cBottom)
	}
}

func TestConfidenceNoEvidence(t *testing.T) {
	g := corridor()
	db := NewDB(g, 100)
	if got := db.Confidence(g, top(), 0, 100, 1); got != 0 {
		t.Errorf("empty DB confidence = %v", got)
	}
	if got := db.Confidence(g, roadnet.Route{}, 0, 100, 1); got != 0 {
		t.Errorf("empty route confidence = %v", got)
	}
}

func TestConfidenceWeighsByDistanceAndTruthConfidence(t *testing.T) {
	g := corridor()
	tm := routing.At(0, 9, 0)

	// Two truths: a near one (exact endpoints) supporting top and a far one
	// supporting bottom. The near one should dominate.
	db := NewDB(g, 100)
	db.Store(Entry{From: 0, To: 3, Slot: tm.Slot(24), Route: top(), Confidence: 1})
	db.Store(Entry{From: 6, To: 7, Slot: tm.Slot(24), Route: roadnet.NewRoute(6, 0, 4, 5, 3, 7), Confidence: 1})
	cTop := db.Confidence(g, top(), tm, 200, 1)
	if cTop <= 0.5 {
		t.Errorf("near truth should dominate: confidence = %v", cTop)
	}

	// Confidence weighting: a low-confidence contrary truth barely moves
	// the score relative to a high-confidence supporting truth. The
	// contrary truth sits in the neighboring slot (same key would replace)
	// and slotTol = 1 brings both into scope.
	db2 := NewDB(g, 100)
	db2.Store(Entry{From: 0, To: 3, Slot: tm.Slot(24), Route: top(), Confidence: 1})
	db2.Store(Entry{From: 0, To: 3, Slot: tm.Slot(24) + 1, Route: bottom(), Confidence: 0.05})
	got := db2.Confidence(g, top(), tm, 100, 1)
	if got < 0.9 {
		t.Errorf("low-confidence contrary truth should barely matter: %v", got)
	}
}

func TestStoreReplacesSameKey(t *testing.T) {
	tm := routing.At(0, 9, 0)
	db := NewDB(corridor(), 100)
	db.Store(Entry{From: 0, To: 3, Slot: tm.Slot(24), Route: top(), Confidence: 0.6})
	db.Store(Entry{From: 0, To: 3, Slot: tm.Slot(24), Route: bottom(), Confidence: 0.9})
	if db.Len() != 1 {
		t.Fatalf("Len = %d, want 1 (same-key store must replace)", db.Len())
	}
	e, ok := db.Lookup(0, 3, tm)
	if !ok || !e.Route.Equal(bottom()) || e.Confidence != 0.9 {
		t.Errorf("Lookup = %+v, %v; want the replacing entry", e, ok)
	}
	// A different slot is a different key.
	db.Store(Entry{From: 0, To: 3, Slot: tm.Slot(24) + 1, Route: top(), Confidence: 0.7})
	if db.Len() != 2 {
		t.Errorf("Len = %d, want 2", db.Len())
	}
}

func TestSlotDist(t *testing.T) {
	cases := []struct{ a, b, slots, want int }{
		{0, 23, 24, 1},
		{0, 12, 24, 12},
		{5, 5, 24, 0},
		{2, 20, 24, 6},
	}
	for _, c := range cases {
		if got := slotDist(c.a, c.b, c.slots); got != c.want {
			t.Errorf("slotDist(%d,%d,%d) = %d, want %d", c.a, c.b, c.slots, got, c.want)
		}
	}
}

func TestSlotWindow(t *testing.T) {
	allBut := func(skip int) []int {
		var out []int
		for sl := range Slots {
			if sl != skip {
				out = append(out, sl)
			}
		}
		return out
	}
	all := allBut(-1)
	cases := []struct {
		slot, tol int
		want      []int
	}{
		{0, -1, []int{0}},
		{0, 0, []int{0}},
		{0, 1, []int{0, 1, 23}},
		{0, 11, allBut(12)},
		{0, 12, all},
		{0, 30, all},
		{23, -1, []int{23}},
		{23, 0, []int{23}},
		{23, 1, []int{0, 22, 23}},
		{23, 11, allBut(11)},
		{23, 12, all},
		{23, 30, all},
	}
	for _, c := range cases {
		if got := SlotWindow(c.slot, c.tol); !slices.Equal(got, c.want) {
			t.Errorf("SlotWindow(%d, %d) = %v, want %v", c.slot, c.tol, got, c.want)
		}
	}
}

func TestEntriesCopy(t *testing.T) {
	db := NewDB(corridor(), 100)
	db.Store(Entry{From: 0, To: 3, Route: top(), Confidence: 1})
	es := db.Entries()
	if len(es) != 1 {
		t.Fatalf("Entries = %d", len(es))
	}
	es[0].From = 99
	if db.Entries()[0].From == 99 {
		t.Error("Entries must return a copy")
	}
}

func TestNewDBDefaultSlots(t *testing.T) {
	db := NewDB(corridor(), 0)
	// Hourly slots: a truth stored for Tue 10:00 is reused at 10:30, and a
	// departure in another hour is another key.
	db.Store(Entry{From: 0, To: 3, Slot: routing.At(1, 10, 0).Slot(Slots), Route: top(), Confidence: 0.9})
	if _, ok := db.Lookup(0, 3, routing.At(1, 10, 30)); !ok {
		t.Error("truth for 10:00 not found at 10:30")
	}
	if _, ok := db.Lookup(0, 3, routing.At(1, 0, 30)); ok {
		t.Error("truth for 10:00 found at 00:30")
	}
}

func TestConcurrentAccess(t *testing.T) {
	g := corridor()
	db := NewDB(g, 100)
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < 50; j++ {
				db.Store(Entry{From: 0, To: 3, Slot: j % 24, Route: top(), Confidence: 0.8})
				db.Lookup(0, 3, routing.At(0, j%24, 0))
				db.Confidence(g, top(), routing.At(0, j%24, 0), 100, 1)
			}
		}(i)
	}
	wg.Wait()
	// 8 goroutines × 50 stores collapse onto 24 distinct (from,to,slot)
	// keys: same-key stores replace.
	if db.Len() != 24 {
		t.Errorf("Len = %d, want 24", db.Len())
	}
}

func TestConfidenceRange(t *testing.T) {
	g := corridor()
	db := NewDB(g, 100)
	tm := routing.At(0, 9, 0)
	db.Store(Entry{From: 0, To: 3, Slot: tm.Slot(24), Route: top(), Confidence: 0.7})
	db.Store(Entry{From: 0, To: 3, Slot: tm.Slot(24), Route: bottom(), Confidence: 0.7})
	for _, r := range []roadnet.Route{top(), bottom()} {
		c := db.Confidence(g, r, tm, 100, 1)
		if c < 0 || c > 1 || math.IsNaN(c) {
			t.Errorf("confidence out of range: %v", c)
		}
	}
}

// TestConfidenceBatchMatchesSingle pins the batched scorer's contract:
// ConfidenceBatch returns bit-identical scores to calling Confidence per
// candidate — same Near ordering, same accumulation sequence — including for
// empty candidates, repeated routes, and candidates whose OD pairs differ
// (each distinct pair gets its own Near scan, cached within the call).
func TestConfidenceBatchMatchesSingle(t *testing.T) {
	g := corridor()
	db := NewDB(g, 100)
	tm := routing.At(0, 9, 0)
	db.Store(Entry{From: 0, To: 3, Slot: tm.Slot(24), Route: top(), Confidence: 0.9})
	db.Store(Entry{From: 0, To: 3, Slot: tm.Slot(24), Route: bottom(), Confidence: 0.6})
	db.Store(Entry{From: 6, To: 7, Slot: tm.Slot(24), Route: roadnet.NewRoute(6, 0, 1, 2, 3, 7), Confidence: 1})

	cands := []roadnet.Route{
		top(),
		bottom(),
		{},                                 // empty: no evidence, scores 0
		roadnet.NewRoute(6, 0, 4, 5, 3, 7), // different OD pair
		top(),                              // repeat: served from the per-call Near cache
	}
	got := db.ConfidenceBatch(g, cands, tm, 200, 1)
	if len(got) != len(cands) {
		t.Fatalf("batch returned %d scores for %d candidates", len(got), len(cands))
	}
	for i, c := range cands {
		want := db.Confidence(g, c, tm, 200, 1)
		if got[i] != want {
			t.Errorf("candidate %d: batch = %v, single = %v", i, got[i], want)
		}
	}
	if got[2] != 0 {
		t.Errorf("empty candidate scored %v, want 0", got[2])
	}
	if got[0] != got[4] {
		t.Errorf("repeated candidate diverged: %v vs %v", got[0], got[4])
	}
	if got[0] == 0 {
		t.Error("exact truth route scored 0; the fixture should provide evidence")
	}
}
