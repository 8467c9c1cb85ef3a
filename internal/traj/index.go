package traj

import (
	"math"
	"sort"

	"crowdplanner/internal/geo"
	"crowdplanner/internal/roadnet"
)

// The mining index turns the trajectory corpus from a frozen slice the
// popular-route miners re-scan on every cache miss into a live, queryable
// store: an endpoint grid index answers TripsBetween from a handful of
// buckets, and per-time-slot footmark frequency graphs answer the MPR/MFP
// aggregate queries without touching individual trips at all. The same
// pattern that gave truth.DB.Near its grid-bucket speedup (PR 3) applied to
// the corpus itself.
//
// Concurrency: the index supports live ingestion (IngestTrips) concurrent
// with mining queries. The Dataset's RWMutex guards the trip slice and the
// bucket maps; the frequency graphs are copy-on-write — an ingest batch
// clones the graphs it touches and swaps the pointers, so a miner that
// grabbed a graph under the read lock can keep using it lock-free.
//
// Determinism: every query returns exactly what the corresponding linear
// scan over the corpus returns — same trips in the same (corpus) order, same
// frequency-map contents. The scans live on as test oracles
// (index_test.go).

// Transition is one observed hop between consecutive route nodes — the
// "footmark" unit of the frequency graphs shared with package popular.
type Transition struct {
	From, To roadnet.NodeID
}

// routeTransitions visits the consecutive node pairs of a route.
func routeTransitions(r roadnet.Route, fn func(t Transition)) {
	for i := 1; i < len(r.Nodes); i++ {
		fn(Transition{From: r.Nodes[i-1], To: r.Nodes[i]})
	}
}

// footmarkSlots is the granularity of the per-time-slot frequency graphs:
// 15-minute buckets over the day. MFP's window filter is continuous, so
// queries combine whole-slot aggregates for fully covered slots with an
// exact per-trip filter on the (at most two) boundary slots — finer slots
// shrink the boundary fraction (the only per-trip work left) at the cost of
// merging a few more precomputed maps, which is far cheaper.
const footmarkSlots = 96

// slotHours is the width of one footmark slot in hours.
const slotHours = 24.0 / footmarkSlots

// footmarkGraph is an immutable transition-frequency snapshot. Once
// published on the index it is never mutated; ingestion replaces it.
type footmarkGraph struct {
	counts map[Transition]int
	out    map[roadnet.NodeID]int // outgoing-transition totals per node
}

func newFootmarkGraph() *footmarkGraph {
	return &footmarkGraph{counts: map[Transition]int{}, out: map[roadnet.NodeID]int{}}
}

// clone deep-copies the graph so an ingest batch can extend it without
// disturbing readers holding the old pointer.
func (f *footmarkGraph) clone() *footmarkGraph {
	c := &footmarkGraph{
		counts: make(map[Transition]int, len(f.counts)),
		out:    make(map[roadnet.NodeID]int, len(f.out)),
	}
	//cplint:ordered-irrelevant -- map-to-map copy; key-addressed writes have no observable order
	for k, v := range f.counts {
		c.counts[k] = v
	}
	//cplint:ordered-irrelevant -- map-to-map copy; key-addressed writes have no observable order
	for k, v := range f.out {
		c.out[k] = v
	}
	return c
}

func (f *footmarkGraph) add(r roadnet.Route) {
	routeTransitions(r, func(t Transition) {
		f.counts[t]++
		f.out[t.From]++
	})
}

// cellCoord addresses one grid cell along one axis pair by integer
// coordinates (floor division, negative-safe) — the unbounded-grid trick of
// truth.cellKey, since trip endpoints follow the road network, which the
// index does not need to know the extent of.
type cellCoord struct{ cx, cy int32 }

// cellKey buckets a trip by the grid cells of *both* route endpoints.
// TripsBetween filters on both endpoints, so keying on the pair makes the
// candidate set essentially the match set; keying on the source alone would
// hand back everything leaving the query's neighbourhood (in a dense corpus
// that is a large fraction of all trips) only to discard it on the
// destination filter.
type cellKey struct{ src, dst cellCoord }

// miningIndex is the per-dataset index state. All fields are guarded by the
// owning Dataset's mutex except the footmark graphs, which are
// copy-on-write (see above).
type miningIndex struct {
	cell float64 // endpoint bucket edge length, meters; immutable
	//cplint:guardedby Dataset.mu
	endpoints map[cellKey][]int // trip indices by endpoint-pair cell, ascending

	// The graph *pointers* are guarded like everything else; the graphs they
	// point at are immutable snapshots, safe to keep using after release.
	//cplint:guardedby Dataset.mu
	global *footmarkGraph // every trip (MPR's transfer network)
	//cplint:guardedby Dataset.mu
	slotTrips [footmarkSlots][]int // trip indices by depart-hour slot
	//cplint:guardedby Dataset.mu
	slots [footmarkSlots]*footmarkGraph // per-slot aggregates (MFP)
}

// defaultIndexCellM sizes endpoint buckets to the LDR match radius, so a
// radius query touches ~3 cells per endpoint axis (81 bucket keys total,
// most of them empty).
const defaultIndexCellM = 300

func newMiningIndex(cell float64) *miningIndex {
	if cell <= 0 {
		cell = defaultIndexCellM
	}
	idx := &miningIndex{cell: cell, endpoints: map[cellKey][]int{}, global: newFootmarkGraph()}
	for s := range idx.slots {
		idx.slots[s] = newFootmarkGraph()
	}
	return idx
}

func (idx *miningIndex) coordOf(p geo.Point) cellCoord {
	return cellCoord{
		cx: int32(math.Floor(p.X / idx.cell)),
		cy: int32(math.Floor(p.Y / idx.cell)),
	}
}

// tripCell is the bucket key of a route: the cell pair of its endpoints.
func (idx *miningIndex) tripCell(g *roadnet.Graph, r roadnet.Route) cellKey {
	return cellKey{
		src: idx.coordOf(g.Node(r.Source()).Pt),
		dst: idx.coordOf(g.Node(r.Dest()).Pt),
	}
}

// departSlot maps a departure hour-of-day to its footmark slot.
func departSlot(hour float64) int {
	s := int(hour / slotHours)
	if s < 0 {
		s = 0
	}
	if s >= footmarkSlots {
		s = footmarkSlots - 1
	}
	return s
}

// addTrip indexes trip i. For ingestion the footmark graphs must already
// have been cloned for this batch (addBatch handles that); at build time the
// fresh graphs are mutated in place.
func (idx *miningIndex) addTrip(g *roadnet.Graph, i int, tr *Trajectory) {
	if tr.Route.Empty() {
		// Unmatched trips contribute no footmarks and no endpoints, exactly
		// as the linear scans skip them.
		return
	}
	ck := idx.tripCell(g, tr.Route)
	idx.endpoints[ck] = append(idx.endpoints[ck], i)
	idx.global.add(tr.Route)
	s := departSlot(tr.Depart.HourOfDay())
	idx.slotTrips[s] = append(idx.slotTrips[s], i)
	idx.slots[s].add(tr.Route)
}

// addBatch indexes newly ingested trips [start, start+len(trips)) under
// copy-on-write: the global graph and every touched slot graph are cloned
// once per batch, extended, and swapped in.
func (idx *miningIndex) addBatch(g *roadnet.Graph, start int, trips []Trajectory) {
	global := idx.global.clone()
	cloned := map[int]*footmarkGraph{}
	for i := range trips {
		tr := &trips[i]
		if tr.Route.Empty() {
			continue
		}
		ck := idx.tripCell(g, tr.Route)
		idx.endpoints[ck] = append(idx.endpoints[ck], start+i)
		global.add(tr.Route)
		s := departSlot(tr.Depart.HourOfDay())
		idx.slotTrips[s] = append(idx.slotTrips[s], start+i)
		fg, ok := cloned[s]
		if !ok {
			fg = idx.slots[s].clone()
			cloned[s] = fg
		}
		fg.add(tr.Route)
	}
	idx.global = global
	//cplint:ordered-irrelevant -- each slot pointer is swapped independently under its own key
	for s, fg := range cloned {
		idx.slots[s] = fg
	}
}

// hourDist is the circular distance in hours between two hours-of-day.
func hourDist(a, b float64) float64 {
	d := a - b
	if d < 0 {
		d = -d
	}
	if d > 12 {
		d = 24 - d
	}
	return d
}

// slotCoverage classifies footmark slot s (hours [s, s+1)·slotHours)
// against the circular window of half-width w around hour: slotFull means
// every departure in the slot is inside the window, slotPartial means some
// may be, slotOutside means none is.
type slotCover int

const (
	slotOutside slotCover = iota
	slotPartial
	slotFull
)

func slotCoverage(s int, hour, w float64) slotCover {
	if w >= 12 {
		return slotFull // circular distance never exceeds 12
	}
	lo, hi := float64(s)*slotHours, float64(s+1)*slotHours
	d0, d1 := hourDist(lo, hour), hourDist(hi, hour)
	// Minimum distance over [lo, hi]: zero when the query hour lies inside
	// the slot (mod 24), otherwise attained at an endpoint.
	minD := math.Min(d0, d1)
	inSlot := hour >= lo && hour <= hi
	if !inSlot {
		// The day is circular; hour==hour+24 aliases only at the seam, and
		// slots never straddle it, so the plain containment test above is
		// exact.
		if minD > w {
			return slotOutside
		}
	}
	// Maximum distance over [lo, hi]: attained at an endpoint unless the
	// antipode hour+12 lies strictly inside the slot, where it peaks at 12.
	anti := math.Mod(hour+12, 24)
	if anti > lo && anti < hi {
		return slotPartial // max distance is 12 > w
	}
	if math.Max(d0, d1) <= w {
		return slotFull
	}
	return slotPartial
}

// ---- Dataset query/ingestion surface ----

// IngestTrips appends trips to the corpus and updates the mining indexes
// incrementally (copy-on-write for the frequency graphs, so concurrent
// miners are never blocked mid-query). It returns the ingestion sequence
// number of the first appended trip (the batch gets contiguous numbers) —
// stable identifiers the storage layer uses to replay the stream
// idempotently. Validation is the caller's job (core.System.IngestTrips
// checks route connectivity against the graph).
func (ds *Dataset) IngestTrips(trips []Trajectory) int64 {
	ds.mu.Lock()
	defer ds.mu.Unlock()
	first := ds.nextSeq
	for range trips {
		ds.ingSeqs = append(ds.ingSeqs, ds.nextSeq)
		ds.nextSeq++
	}
	ds.appendLocked(trips)
	return first
}

// RestoreTrips re-enters a replayed ingestion stream with its original
// sequence numbers (one per trip, ascending) and advances the next-sequence
// counter past the highest, so live ingestion after a replay never reuses a
// number — even when the replayed stream has gaps from records lost to an
// absorbed append failure. Boot-time only; seqs and trips must be the same
// length.
func (ds *Dataset) RestoreTrips(trips []Trajectory, seqs []int64) {
	ds.mu.Lock()
	defer ds.mu.Unlock()
	ds.ingSeqs = append(ds.ingSeqs, seqs...)
	for _, s := range seqs {
		if s >= ds.nextSeq {
			ds.nextSeq = s + 1
		}
	}
	ds.appendLocked(trips)
}

// appendLocked appends the trips and extends the indexes. Caller holds ds.mu
// and has recorded the trips' sequence numbers.
func (ds *Dataset) appendLocked(trips []Trajectory) {
	start := len(ds.Trips)
	ds.Trips = append(ds.Trips, trips...)
	ds.idx.addBatch(ds.Graph, start, ds.Trips[start:])
}

// NumTrips returns the current corpus size (generated plus ingested).
func (ds *Dataset) NumTrips() int {
	ds.mu.RLock()
	defer ds.mu.RUnlock()
	return len(ds.Trips)
}

// IngestedTrips returns a copy of the trips ingested after construction, in
// ingestion order.
func (ds *Dataset) IngestedTrips() []Trajectory {
	trips, _ := ds.IngestedStream()
	return trips
}

// IngestedStream returns the ingested trips together with their durable
// sequence numbers — what a snapshot persists. The numbers are the ones the
// trips were first logged under (replayed trips keep theirs), so a snapshot
// and a stale WAL record of the same trip always agree and the replay
// dedupe stays sound.
func (ds *Dataset) IngestedStream() ([]Trajectory, []int64) {
	ds.mu.RLock()
	defer ds.mu.RUnlock()
	if ds.base >= len(ds.Trips) {
		return nil, nil
	}
	trips := make([]Trajectory, len(ds.Trips)-ds.base)
	copy(trips, ds.Trips[ds.base:])
	seqs := make([]int64, len(ds.ingSeqs))
	copy(seqs, ds.ingSeqs)
	return trips, seqs
}

// TransitionTotals returns the corpus-wide transition counts and per-node
// outgoing totals — MPR's transfer network. The maps are immutable
// snapshots: callers must not mutate them, and may keep using them after the
// call (ingestion publishes fresh maps instead of touching these).
func (ds *Dataset) TransitionTotals() (counts map[Transition]int, out map[roadnet.NodeID]int) {
	ds.mu.RLock()
	defer ds.mu.RUnlock()
	return ds.idx.global.counts, ds.idx.global.out
}

// FootmarksNearHour returns the transition-frequency graph of trips whose
// departure hour is within window hours (circularly) of hour — MFP's
// time-period footmark graph. The result is freshly allocated and owned by
// the caller. Fully covered hour slots contribute their precomputed
// aggregates; only the boundary slots are filtered trip by trip.
func (ds *Dataset) FootmarksNearHour(hour, window float64) map[Transition]int {
	ds.mu.RLock()
	defer ds.mu.RUnlock()
	freq := map[Transition]int{}
	for s := 0; s < footmarkSlots; s++ {
		switch slotCoverage(s, hour, window) {
		case slotOutside:
		case slotFull:
			//cplint:ordered-irrelevant -- commutative += accumulation into a key-addressed map
			for t, c := range ds.idx.slots[s].counts {
				freq[t] += c
			}
		case slotPartial:
			for _, i := range ds.idx.slotTrips[s] {
				tr := &ds.Trips[i]
				if hourDist(tr.Depart.HourOfDay(), hour) > window {
					continue
				}
				routeTransitions(tr.Route, func(t Transition) { freq[t]++ })
			}
		}
	}
	return freq
}

// TripsBetween returns the trips whose matched route starts within radius of
// from and ends within radius of to, in corpus order. Radius 0 requires
// exact endpoints. Only the buckets whose source cell overlaps
// [from ± radius] and whose destination cell overlaps [to ± radius] are
// visited; the exact distance filter runs on the survivors, and the trip
// indices are sorted back into corpus order.
func (ds *Dataset) TripsBetween(from, to roadnet.NodeID, radius float64) []Trajectory {
	ds.mu.RLock()
	defer ds.mu.RUnlock()
	fp := ds.Graph.Node(from).Pt
	tp := ds.Graph.Node(to).Pt
	r := math.Max(radius, 0)
	slo := ds.idx.coordOf(geo.Point{X: fp.X - r, Y: fp.Y - r})
	shi := ds.idx.coordOf(geo.Point{X: fp.X + r, Y: fp.Y + r})
	dlo := ds.idx.coordOf(geo.Point{X: tp.X - r, Y: tp.Y - r})
	dhi := ds.idx.coordOf(geo.Point{X: tp.X + r, Y: tp.Y + r})
	var matched []int
	for scy := slo.cy; scy <= shi.cy; scy++ {
		for scx := slo.cx; scx <= shi.cx; scx++ {
			for dcy := dlo.cy; dcy <= dhi.cy; dcy++ {
				for dcx := dlo.cx; dcx <= dhi.cx; dcx++ {
					key := cellKey{src: cellCoord{scx, scy}, dst: cellCoord{dcx, dcy}}
					for _, i := range ds.idx.endpoints[key] {
						tr := &ds.Trips[i]
						s := ds.Graph.Node(tr.Route.Source()).Pt
						d := ds.Graph.Node(tr.Route.Dest()).Pt
						if distOK(s, fp, radius) && distOK(d, tp, radius) {
							matched = append(matched, i)
						}
					}
				}
			}
		}
	}
	if len(matched) == 0 {
		return nil
	}
	sort.Ints(matched)
	out := make([]Trajectory, 0, len(matched))
	for _, i := range matched {
		out = append(out, ds.Trips[i])
	}
	return out
}

func distOK(a, b geo.Point, radius float64) bool {
	if radius <= 0 {
		return a == b
	}
	return geo.Dist(a, b) <= radius
}
