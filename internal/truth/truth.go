// Package truth implements CrowdPlanner's verified-truth database: routes
// already confirmed to be the best between two places at a departure time.
// The control logic consults it twice per request: first to *reuse* a truth
// outright (an exact-enough hit returns immediately, no candidates needed),
// then to score fresh candidate routes by similarity to nearby truths (the
// route evaluation component's confidence score).
package truth

import (
	"math"
	"sort"
	"sync"

	"crowdplanner/internal/geo"
	"crowdplanner/internal/roadnet"
	"crowdplanner/internal/routing"
)

// Slots is the number of daily departure-time slots a truth is tagged with
// (the paper's "time tag"): 24 gives hourly tags. The serving core keys its
// route cache and invalidates cached candidates with the same slots.
const Slots = 24

// Entry is one verified truth: the best route between From and To when
// departing within time slot Slot, plus bookkeeping about how it was
// verified.
type Entry struct {
	From, To   roadnet.NodeID
	Slot       int // departure-time slot in [0, Slots), see routing.SimTime.Slot
	Route      roadnet.Route
	Confidence float64 // how sure the system was when storing (0..1]
	Crowd      bool    // true if verified by crowd workers, false if by agreement
	StoredAt   routing.SimTime
}

// DB is the truth store. It is safe for concurrent use.
type DB struct {
	mu sync.RWMutex
	g  *roadnet.Graph
	//cplint:guardedby mu
	entries []Entry
	// byOD indexes each (from, to, slot) key's entry for exact-node lookups;
	// Store replaces in place, so a key never has more than one entry.
	//cplint:guardedby mu
	byOD map[odSlot]int
	// Spatial index for Near/Confidence: entry indices bucketed by the grid
	// cell of the truth's *from* endpoint. Both endpoints must fall within
	// the query radius, so indexing one endpoint already bounds the scan to
	// nearby buckets; the to-endpoint filter runs on the survivors.
	cell float64
	//cplint:guardedby mu
	buckets map[cellKey][]int
}

type odSlot struct {
	from, to roadnet.NodeID
	slot     int
}

// cellKey addresses one grid cell by integer coordinates — so the index
// needs no bounding box up front — plus the time slot: Near always filters
// by slot tolerance, so folding the slot into the bucket key keeps
// slot-mismatched truths out of the candidate set entirely.
type cellKey struct{ cx, cy, slot int32 }

// NewDB creates a truth database over g, quantizing departure times into
// Slots daily slots. Truths are bucketed by the grid cell of their
// from-endpoint, so Near (and with it Confidence) touches only the
// buckets overlapping the query radius. cell is the bucket edge length in
// meters; pass the radius the system queries with (Config.TruthRadius) so a
// query touches ~9 buckets. Non-positive cell defaults to 500m.
func NewDB(g *roadnet.Graph, cell float64) *DB {
	if cell <= 0 {
		cell = 500
	}
	return &DB{g: g, cell: cell, byOD: make(map[odSlot]int), buckets: make(map[cellKey][]int)}
}

// cellOf maps a point and slot to the bucket key (floor division,
// negative-safe).
func (db *DB) cellOf(p geo.Point, slot int) cellKey {
	return cellKey{
		cx:   int32(math.Floor(p.X / db.cell)),
		cy:   int32(math.Floor(p.Y / db.cell)),
		slot: int32(slot),
	}
}

// Len returns the number of stored truths.
func (db *DB) Len() int {
	db.mu.RLock()
	defer db.mu.RUnlock()
	return len(db.entries)
}

// Store records a verified truth. Storing a second truth for the same
// (from, to, slot) key replaces the first: the latest verification
// supersedes earlier ones (Lookup already returned only the newest), and
// keeping duplicates would grow the store — and every Near scan — linearly
// with the request stream instead of with distinct OD+slot keys.
func (db *DB) Store(e Entry) {
	db.mu.Lock()
	defer db.mu.Unlock()
	e.Slot = ((e.Slot % Slots) + Slots) % Slots
	k := odSlot{e.From, e.To, e.Slot}
	if i, ok := db.byOD[k]; ok {
		// Replacement keeps the entry index and the from-endpoint, so the
		// spatial bucket needs no update.
		db.entries[i] = e
		return
	}
	i := len(db.entries)
	db.entries = append(db.entries, e)
	db.byOD[k] = i
	ck := db.cellOf(db.g.Node(e.From).Pt, e.Slot)
	db.buckets[ck] = append(db.buckets[ck], i)
}

// Lookup returns the most recently stored truth for the exact OD pair and
// the slot of t, if any. This implements the reuse-truth component's hit
// path.
func (db *DB) Lookup(from, to roadnet.NodeID, t routing.SimTime) (Entry, bool) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	i, ok := db.byOD[odSlot{from, to, t.Slot(Slots)}]
	if !ok {
		return Entry{}, false
	}
	return db.entries[i], true
}

// Near returns truths whose endpoints are within radius meters of the
// requested endpoints and whose slot is within slotTol slots (circularly) of
// t's slot, ordered by decreasing endpoint proximity (ties by storage
// order). Only the buckets overlapping the query radius are scanned. g must
// be the graph the DB was created over.
func (db *DB) Near(g *roadnet.Graph, from, to roadnet.NodeID, t routing.SimTime, radius float64, slotTol int) []Entry {
	db.mu.RLock()
	defer db.mu.RUnlock()
	slot := t.Slot(Slots)
	fp := g.Node(from).Pt
	tp := g.Node(to).Pt
	type scored struct {
		idx int
		d   float64
	}
	var out []scored
	// Only the buckets covering [fp±radius] in the slot window can hold
	// matches. Visit order doesn't matter: the final sort breaks distance
	// ties by entry index.
	lo := db.cellOf(geo.Point{X: fp.X - radius, Y: fp.Y - radius}, 0)
	hi := db.cellOf(geo.Point{X: fp.X + radius, Y: fp.Y + radius}, 0)
	for _, sl := range SlotWindow(slot, slotTol) {
		for cy := lo.cy; cy <= hi.cy; cy++ {
			for cx := lo.cx; cx <= hi.cx; cx++ {
				for _, i := range db.buckets[cellKey{cx, cy, int32(sl)}] {
					e := &db.entries[i]
					if slotDist(e.Slot, slot, Slots) > slotTol {
						continue
					}
					df := geo.Dist(g.Node(e.From).Pt, fp)
					dt := geo.Dist(g.Node(e.To).Pt, tp)
					if df > radius || dt > radius {
						continue
					}
					out = append(out, scored{idx: i, d: df + dt})
				}
			}
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].d != out[j].d {
			return out[i].d < out[j].d
		}
		return out[i].idx < out[j].idx
	})
	res := make([]Entry, len(out))
	for i, s := range out {
		res[i] = db.entries[s.idx]
	}
	return res
}

// SlotWindow lists the slots within tol circular steps of slot, a slot in
// [0, Slots), in ascending order. A negative tol means 0; a tol of Slots/2
// or more covers the whole day.
func SlotWindow(slot, tol int) []int {
	tol = min(max(tol, 0), Slots/2)
	out := make([]int, 0, 2*tol+1)
	for sl := range Slots {
		if slotDist(sl, slot, Slots) <= tol {
			out = append(out, sl)
		}
	}
	return out
}

// slotDist is the circular distance between two slots.
func slotDist(a, b, slots int) int {
	d := a - b
	if d < 0 {
		d = -d
	}
	if d > slots/2 {
		d = slots - d
	}
	return d
}

// Confidence scores a candidate route against the verified truths near its
// OD pair, implementing the route evaluation component: each nearby truth
// votes with weight decaying in endpoint distance, and its vote is the
// route-similarity between the candidate and the truth's route. The result
// is in [0,1]; 0 means no nearby truths (no evidence), not "bad".
func (db *DB) Confidence(g *roadnet.Graph, candidate roadnet.Route, t routing.SimTime, radius float64, slotTol int) float64 {
	if candidate.Empty() {
		return 0
	}
	near := db.Near(g, candidate.Source(), candidate.Dest(), t, radius, slotTol)
	return scoreAgainst(g, candidate, near, radius)
}

// ConfidenceBatch scores several candidate routes in one pass, running Near
// once per distinct OD pair instead of once per candidate. The recommendation
// fan-out is the motivating caller: all its candidates share the request's OD
// pair, so the truth lookup — the dominant cost of scoring — collapses from
// one scan per candidate to one scan total. Scores are identical to calling
// Confidence per candidate (same Near ordering, same accumulation sequence).
func (db *DB) ConfidenceBatch(g *roadnet.Graph, candidates []roadnet.Route, t routing.SimTime, radius float64, slotTol int) []float64 {
	out := make([]float64, len(candidates))
	type od struct{ from, to roadnet.NodeID }
	var nearCache map[od][]Entry
	for i, c := range candidates {
		if c.Empty() {
			continue
		}
		key := od{c.Source(), c.Dest()}
		near, ok := nearCache[key]
		if !ok {
			near = db.Near(g, key.from, key.to, t, radius, slotTol)
			if nearCache == nil {
				nearCache = make(map[od][]Entry, 1)
			}
			nearCache[key] = near
		}
		out[i] = scoreAgainst(g, c, near, radius)
	}
	return out
}

// scoreAgainst is the shared scoring kernel of Confidence and
// ConfidenceBatch: each nearby truth votes with weight decaying in endpoint
// distance, and its vote is the route-similarity between the candidate and
// the truth's route.
func scoreAgainst(g *roadnet.Graph, candidate roadnet.Route, near []Entry, radius float64) float64 {
	if len(near) == 0 {
		return 0
	}
	fp := g.Node(candidate.Source()).Pt
	tp := g.Node(candidate.Dest()).Pt
	var num, den float64
	for _, e := range near {
		df := geo.Dist(g.Node(e.From).Pt, fp)
		dt := geo.Dist(g.Node(e.To).Pt, tp)
		// Weight: exponential decay with combined endpoint distance, scaled
		// by the truth's own confidence.
		w := math.Exp(-(df+dt)/(radius+1)) * e.Confidence
		num += w * candidate.Similarity(e.Route)
		den += w
	}
	if den == 0 {
		return 0
	}
	return num / den
}

// Entries returns a copy of all stored truths, oldest first.
func (db *DB) Entries() []Entry {
	db.mu.RLock()
	defer db.mu.RUnlock()
	out := make([]Entry, len(db.entries))
	copy(out, db.entries)
	return out
}

// EntriesRange copies the entries in [offset, offset+limit), oldest first,
// and returns the total count — the pagination accessor for GET /v1/truths,
// which must not deep-copy the whole store per page. Offsets beyond the end
// yield an empty (non-nil) slice; a non-positive limit yields everything
// from offset.
func (db *DB) EntriesRange(offset, limit int) ([]Entry, int) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	total := len(db.entries)
	if offset < 0 {
		offset = 0
	}
	lo := min(offset, total)
	hi := total
	if limit > 0 {
		hi = min(lo+limit, total)
	}
	out := make([]Entry, hi-lo)
	copy(out, db.entries[lo:hi])
	return out, total
}
