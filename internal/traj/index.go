package traj

import (
	"cmp"
	"fmt"
	"math"
	"slices"

	"crowdplanner/internal/geo"
	"crowdplanner/internal/roadnet"
	"crowdplanner/internal/routing"
)

// The mining index stores the corpus so that every miner query and every
// ingest batch costs O(edges + distinct routes), never O(trips):
//
//   - a route table interns each distinct node sequence once, with the
//     canonical edge of every hop;
//   - each trip is a 20-byte entry (minute of day, route ID, driver, day
//     number) in the columns of its 15-minute departure slot, plus a 1-byte
//     slot number in an ingestion-order column; columns grow in bounded
//     chunks, so a trip costs 21 bytes plus a small share of one partly
//     filled chunk per column;
//   - footmark counts are int32 arrays indexed by edge ID: one global array
//     with per-node outgoing totals (MPR's transfer network), and one array
//     per slot (MFP's time-period footmark graph);
//   - LDR's aggregate counts trips per (source node, destination node) by
//     (driver, route).
//
// A graph with parallel edges counts each node pair on one canonical edge,
// the first one FindEdge returns; its other edges read 0.
//
// Concurrency: the Dataset's RWMutex guards every field. The global
// footmark arrays are copy-on-write: an ingest batch copies them once
// (about 8 KB on the default world), extends the copies and swaps them in,
// so MPR, which grabs them under the read lock, keeps searching them
// lock-free while ingestion proceeds. Every other structure is read only
// under the read lock and changes in place.
//
// Determinism: every query returns exactly what the corresponding linear
// scan over the corpus returns. Counts are integer sums, so neither the
// order trips arrived in nor the order a query visits them can change a
// result. The scans live on as test oracles (index_test.go).

// RouteID names one distinct route in a Dataset's route table.
type RouteID int32

// routeTable interns the corpus's distinct routes: each is stored once, as
// its node sequence and the canonical edge of every hop.
type routeTable struct {
	nodes  [][]roadnet.NodeID
	edges  [][]roadnet.EdgeID
	byHash map[uint64][]RouteID // node-sequence hash → IDs; nodes decide
}

// intern returns the ID of the route with the given nodes, adding a copy
// of them the first time the sequence is seen: the table never keeps a
// caller's slice. Every hop must be an edge of g; ingestion validates
// routes first, so a hop that is not one is a bug and intern panics.
func (t *routeTable) intern(g *roadnet.Graph, nodes []roadnet.NodeID) RouteID {
	h := hashNodes(nodes)
	for _, id := range t.byHash[h] {
		if slices.Equal(t.nodes[id], nodes) {
			return id
		}
	}
	edges := make([]roadnet.EdgeID, max(len(nodes)-1, 0))
	for i := range edges {
		e, ok := g.FindEdge(nodes[i], nodes[i+1])
		if !ok {
			panic(fmt.Sprintf("traj: route hop %d→%d is not an edge of the road graph", nodes[i], nodes[i+1]))
		}
		edges[i] = e
	}
	id := RouteID(len(t.nodes))
	t.nodes = append(t.nodes, slices.Clone(nodes))
	t.edges = append(t.edges, edges)
	t.byHash[h] = append(t.byHash[h], id)
	return id
}

// hashNodes is an FNV-1a hash over a node sequence.
func hashNodes(nodes []roadnet.NodeID) uint64 {
	h := uint64(14695981039346656037)
	for _, n := range nodes {
		h ^= uint64(n)
		h *= 1099511628211
	}
	return h
}

// chunkMin and chunkMax bound the chunk sizes of a column.
const (
	chunkMin = 16
	chunkMax = 256
)

// column is an append-only sequence stored in chunks that double from
// chunkMin to chunkMax entries: growth never copies entries, and a column
// never reserves more than chunkMax entries ahead, where a slice reserves up
// to a quarter of its length.
type column[T any] struct{ chunks [][]T }

func (c *column[T]) add(v T) {
	k := len(c.chunks) - 1
	if k < 0 || len(c.chunks[k]) == cap(c.chunks[k]) {
		n := chunkMin
		if k >= 0 {
			n = min(2*cap(c.chunks[k]), chunkMax)
		}
		c.chunks = append(c.chunks, make([]T, 0, n))
		k++
	}
	c.chunks[k] = append(c.chunks[k], v)
}

// footmarkSlots is the granularity of the per-time-slot footmark counts:
// 15-minute buckets over the day. MFP's window filter is continuous, so
// queries add whole-slot counts for fully covered slots and filter the (at
// most two) boundary slots' departures one by one.
const footmarkSlots = 96

// slotHours is the width of one footmark slot in hours.
const slotHours = 24.0 / footmarkSlots

// noHops is the pseudo-slot of the trips without a hop (routes of fewer
// than two nodes): it keeps their columns but no footmarks.
const noHops = footmarkSlots

// slotTrip is what a slot keeps of a trip besides its minute of day.
type slotTrip struct {
	route  RouteID
	driver DriverID
	days   int32 // departure = days·1440 + minute of day, unless listed in odd
}

// slotColumns lists the trips departing in one footmark slot, in ingestion
// order. The two columns grow in step, chunk for chunk.
type slotColumns struct {
	minutes column[float64] // Depart.MinuteOfDay(); minutes/60 is Depart.HourOfDay()
	trips   column[slotTrip]
}

// odPair is a (source node, destination node) pair of route endpoints.
type odPair struct{ from, to roadnet.NodeID }

// driverRoute is the key LDR's aggregate counts trips under.
type driverRoute struct {
	driver DriverID
	route  RouteID
}

// miningIndex is the per-dataset corpus store. All fields are guarded by
// the owning Dataset's mutex; the global footmark arrays they point at are
// copy-on-write (see above).
type miningIndex struct {
	//cplint:guardedby Dataset.mu
	routes routeTable
	//cplint:guardedby Dataset.mu
	order column[uint8] // each trip's slot, in ingestion order
	//cplint:guardedby Dataset.mu
	ntrips int
	//cplint:guardedby Dataset.mu
	cols [footmarkSlots + 1]slotColumns // by slot, then noHops
	//cplint:guardedby Dataset.mu
	odd map[int]routing.SimTime // departures days·1440 + minute misses, by trip
	//cplint:guardedby Dataset.mu
	global []int32 // hops per canonical edge, every trip
	//cplint:guardedby Dataset.mu
	out []int32 // hops leaving each node, every trip
	//cplint:guardedby Dataset.mu
	slots [footmarkSlots][]int32 // hops per canonical edge by departure slot; nil until used
	//cplint:guardedby Dataset.mu
	ods map[odPair]map[driverRoute]int32 // LDR's aggregate
}

func newMiningIndex(g *roadnet.Graph) *miningIndex {
	return &miningIndex{
		routes: routeTable{byHash: map[uint64][]RouteID{}},
		global: make([]int32, g.NumEdges()),
		out:    make([]int32, g.NumNodes()),
		ods:    map[odPair]map[driverRoute]int32{},
		odd:    map[int]routing.SimTime{},
	}
}

// canonicalEdges maps every edge to its node pair's canonical edge.
func canonicalEdges(g *roadnet.Graph) []roadnet.EdgeID {
	canon := make([]roadnet.EdgeID, g.NumEdges())
	for i := range canon {
		e := g.Edge(roadnet.EdgeID(i))
		canon[i], _ = g.FindEdge(e.From, e.To)
	}
	return canon
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

// add appends trips to the corpus. The global arrays are copied once per
// batch, extended and swapped in, so readers holding the old arrays are not
// disturbed; everything else is only read under the lock and changes in
// place.
func (idx *miningIndex) add(g *roadnet.Graph, trips []Trajectory) {
	global, out := slices.Clone(idx.global), slices.Clone(idx.out)
	for i := range trips {
		tr := &trips[i]
		id := idx.routes.intern(g, tr.Route.Nodes)
		minute := tr.Depart.MinuteOfDay()
		s := noHops // an unmatched trip has no footmarks and no endpoints
		if edges := idx.routes.edges[id]; len(edges) > 0 {
			s = departSlot(minute / 60)
			if idx.slots[s] == nil {
				idx.slots[s] = make([]int32, len(global))
			}
			slot := idx.slots[s]
			for _, e := range edges {
				global[e]++
				out[g.Edge(e).From]++
				slot[e]++
			}
			k := odPair{tr.Route.Source(), tr.Route.Dest()}
			byDriver := idx.ods[k]
			if byDriver == nil {
				byDriver = map[driverRoute]int32{}
				idx.ods[k] = byDriver
			}
			byDriver[driverRoute{tr.Driver, id}]++
		}
		days, ok := dayNumber(tr.Depart, minute)
		if !ok {
			idx.odd[idx.ntrips] = tr.Depart
		}
		idx.order.add(uint8(s))
		idx.cols[s].minutes.add(minute)
		idx.cols[s].trips.add(slotTrip{route: id, driver: tr.Driver, days: days})
		idx.ntrips++
	}
	idx.global, idx.out = global, out
}

// dayNumber returns the whole days before t's minute of day, such that
// departAt(days, minute) is t bit for bit — true of every departure from
// +0 up to 2³¹ days — or ok = false.
func dayNumber(t routing.SimTime, minute float64) (days int32, ok bool) {
	d := (float64(t) - minute) / routing.MinutesPerDay
	if !(d >= 0 && d <= math.MaxInt32) {
		return 0, false
	}
	days = int32(d)
	return days, math.Float64bits(float64(departAt(days, minute))) == math.Float64bits(float64(t))
}

// departAt is the departure minute minutes into day days. Every step is
// exact for the values dayNumber accepts: days·1440 is an integer below
// 2⁵³, and the sum is the departure itself, a float64.
func departAt(days int32, minute float64) routing.SimTime {
	return routing.SimTime(float64(days)*routing.MinutesPerDay + minute)
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

// seqRun numbers n consecutive ingested trips first, first+1, ....
type seqRun struct{ first, n int64 }

// appendSeqs numbers n more ingested trips from first, extending the last
// run when the numbers continue it, as live ingestion's always do.
func appendSeqs(runs []seqRun, first, n int64) []seqRun {
	if n == 0 {
		return runs
	}
	if k := len(runs) - 1; k >= 0 && runs[k].first+runs[k].n == first {
		runs[k].n += n
		return runs
	}
	return append(runs, seqRun{first: first, n: n})
}

// IngestTrips appends trips to the corpus and updates the mining indexes
// incrementally, at a cost that does not depend on the corpus size (see the
// concurrency note above for readers). It returns the ingestion sequence
// number of the first appended trip (the batch gets contiguous numbers) —
// stable identifiers the storage layer uses to replay the stream
// idempotently. Validation is the caller's job (core.System.IngestTrips
// checks the trips against the graph); as for NewDataset, every hop must be
// a graph edge.
func (ds *Dataset) IngestTrips(trips []Trajectory) int64 {
	ds.mu.Lock()
	defer ds.mu.Unlock()
	first := ds.nextSeq
	ds.seqs = appendSeqs(ds.seqs, first, int64(len(trips)))
	ds.nextSeq += int64(len(trips))
	ds.idx.add(ds.Graph, trips)
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
	for _, s := range seqs {
		ds.seqs = appendSeqs(ds.seqs, s, 1)
		ds.nextSeq = max(ds.nextSeq, s+1)
	}
	ds.idx.add(ds.Graph, trips)
}

// NumTrips returns the current corpus size (generated plus ingested).
func (ds *Dataset) NumTrips() int {
	ds.mu.RLock()
	defer ds.mu.RUnlock()
	return ds.idx.ntrips
}

// IngestedTrips returns the trips ingested after construction, in
// ingestion order.
func (ds *Dataset) IngestedTrips() []Trajectory {
	trips, _ := ds.IngestedStream()
	return trips
}

// IngestedStream returns the ingested trips together with their durable
// sequence numbers — what a snapshot persists. The numbers are the ones the
// trips were first logged under (replayed trips keep theirs), so a snapshot
// and a stale WAL record of the same trip always agree and the replay
// dedupe stays sound. The trips are rebuilt from the slot columns, walked
// in ingestion order: GPS samples are not kept, and trips along one route
// share one fresh copy of its nodes.
func (ds *Dataset) IngestedStream() ([]Trajectory, []int64) {
	ds.mu.RLock()
	defer ds.mu.RUnlock()
	idx := ds.idx
	n := idx.ntrips - ds.base
	if n == 0 {
		return nil, nil
	}
	copies := make([]roadnet.Route, len(idx.routes.nodes))
	trips := make([]Trajectory, 0, n)
	var at [footmarkSlots + 1]struct{ chunk, i int } // each slot's next entry
	i := 0
	for _, chunk := range idx.order.chunks {
		for _, s := range chunk {
			c, p := &idx.cols[s], &at[s]
			if p.i == len(c.minutes.chunks[p.chunk]) {
				p.chunk, p.i = p.chunk+1, 0
			}
			minute, t := c.minutes.chunks[p.chunk][p.i], c.trips.chunks[p.chunk][p.i]
			p.i++
			if i >= ds.base {
				if copies[t.route].Nodes == nil {
					copies[t.route] = roadnet.Route{Nodes: slices.Clone(idx.routes.nodes[t.route])}
				}
				depart, odd := idx.odd[i]
				if !odd {
					depart = departAt(t.days, minute)
				}
				trips = append(trips, Trajectory{Driver: t.driver, Depart: depart, Route: copies[t.route]})
			}
			i++
		}
	}
	seqs := make([]int64, 0, n)
	for _, run := range ds.seqs {
		for k := range run.n {
			seqs = append(seqs, run.first+k)
		}
	}
	return trips, seqs
}

// TransitionTotals returns the corpus-wide footmark counts — MPR's transfer
// network: counts[e] is the number of hops along canonical edge e (see
// CanonicalEdge; every other edge reads 0), and out[n] the number of hops
// leaving node n. The arrays are immutable snapshots: callers must not
// modify them, and may keep using them after the call (ingestion publishes
// fresh arrays instead of touching these).
func (ds *Dataset) TransitionTotals() (counts, out []int32) {
	ds.mu.RLock()
	defer ds.mu.RUnlock()
	return ds.idx.global, ds.idx.out
}

// CanonicalEdge returns the edge that counts the hops of e's node pair: the
// first edge FindEdge returns from e's tail to its head. It is e itself
// unless the graph has parallel edges.
func (ds *Dataset) CanonicalEdge(e roadnet.EdgeID) roadnet.EdgeID { return ds.canon[e] }

// FootmarksNearHour returns the footmark counts of the trips departing
// within window hours (circularly) of hour — MFP's time-period footmark
// graph — indexed by canonical edge like TransitionTotals, or nil when no
// such trip has a hop. The result is freshly allocated and owned by the
// caller. Fully covered slots add their precomputed counts; a boundary slot
// counts its in-window departures per route, then adds each route's edges
// times that count.
func (ds *Dataset) FootmarksNearHour(hour, window float64) []int32 {
	ds.mu.RLock()
	defer ds.mu.RUnlock()
	idx := ds.idx
	var freq []int32
	var tally []int32     // in-window departures by route ID, boundary slots
	var tallied []RouteID // the routes with a nonzero tally
	for s := 0; s < footmarkSlots; s++ {
		switch slotCoverage(s, hour, window) {
		case slotOutside:
		case slotFull:
			if idx.slots[s] == nil {
				continue
			}
			if freq == nil {
				freq = make([]int32, len(idx.global))
			}
			for e, c := range idx.slots[s] {
				freq[e] += c
			}
		case slotPartial:
			c := &idx.cols[s]
			for k, minutes := range c.minutes.chunks {
				trips := c.trips.chunks[k]
				for i, m := range minutes {
					if hourDist(m/60, hour) > window {
						continue
					}
					if tally == nil {
						tally = make([]int32, len(idx.routes.edges))
					}
					id := trips[i].route
					if tally[id] == 0 {
						tallied = append(tallied, id)
					}
					tally[id]++
				}
			}
		}
	}
	if len(tallied) > 0 && freq == nil {
		freq = make([]int32, len(idx.global))
	}
	for _, id := range tallied {
		n := tally[id]
		for _, e := range idx.routes.edges[id] {
			freq[e] += n
		}
	}
	return freq
}

// TripCount is the number of corpus trips one driver made along one
// distinct route.
type TripCount struct {
	Driver DriverID
	Route  RouteID
	Trips  int
}

// TripCounts counts the trips whose route starts within radius of from and
// ends within radius of to (radius 0 or less: at exactly their points), by
// driver and route, sorted by driver and then route ID. It sums LDR's
// aggregate over every (source, destination) node pair that passes the
// distance test, so its cost does not depend on the number of trips.
func (ds *Dataset) TripCounts(from, to roadnet.NodeID, radius float64) []TripCount {
	srcs, dsts := ds.nodesNear(from, radius), ds.nodesNear(to, radius)
	ds.mu.RLock()
	defer ds.mu.RUnlock()
	sums := map[driverRoute]int{}
	for _, s := range srcs {
		for _, d := range dsts {
			//cplint:ordered-irrelevant -- commutative += into a key-addressed map
			for k, n := range ds.idx.ods[odPair{s, d}] {
				sums[k] += int(n)
			}
		}
	}
	out := make([]TripCount, 0, len(sums))
	//cplint:ordered-irrelevant -- collected, then sorted by (driver, route) below
	for k, n := range sums {
		out = append(out, TripCount{Driver: k.driver, Route: k.route, Trips: n})
	}
	slices.SortFunc(out, func(a, b TripCount) int {
		return cmp.Or(cmp.Compare(a.Driver, b.Driver), cmp.Compare(a.Route, b.Route))
	})
	return out
}

// nodesNear returns the nodes whose points pass distOK against n's point.
// NodesWithin's squared-distance test can disagree with geo.Dist at the
// boundary, so it only proposes candidates, from a radius one meter wider,
// and distOK decides.
func (ds *Dataset) nodesNear(n roadnet.NodeID, radius float64) []roadnet.NodeID {
	p := ds.Graph.Node(n).Pt
	near := ds.Graph.NodesWithin(p, math.Max(radius, 0)+1)
	out := near[:0]
	for _, c := range near {
		if distOK(ds.Graph.Node(c).Pt, p, radius) {
			out = append(out, c)
		}
	}
	return out
}

// Route returns a copy of the node sequence of route id.
func (ds *Dataset) Route(id RouteID) roadnet.Route {
	ds.mu.RLock()
	defer ds.mu.RUnlock()
	return roadnet.Route{Nodes: slices.Clone(ds.idx.routes.nodes[id])}
}

// distOK is LDR's endpoint test: within radius, or the same point when the
// radius is 0 or less.
func distOK(a, b geo.Point, radius float64) bool {
	if radius <= 0 {
		return a == b
	}
	return geo.Dist(a, b) <= radius
}
