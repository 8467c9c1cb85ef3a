package popular

import (
	"container/heap"
	"errors"
	"math"
	"math/rand"
	"sort"
	"testing"

	"crowdplanner/internal/geo"
	"crowdplanner/internal/roadnet"
	"crowdplanner/internal/routing"
	"crowdplanner/internal/traj"
)

// The references in this file are the miners as they were written over
// per-trip scans and maps keyed by node pair: each one reads the full
// corpus (the constructed trips, then the ingested stream) trip by trip.
// The production miners read the dataset's aggregates instead and must
// answer bit-identically.

// transition is one observed hop between consecutive route nodes.
type transition struct {
	from, to roadnet.NodeID
}

// allTrips is the full corpus in ingestion order.
func allTrips(ds *traj.Dataset) []traj.Trajectory {
	return append(append([]traj.Trajectory(nil), ds.Trips...), ds.IngestedTrips()...)
}

// scanFootmarks counts the hops of the trips keep accepts.
func scanFootmarks(ds *traj.Dataset, keep func(tr *traj.Trajectory) bool) (map[transition]int, map[roadnet.NodeID]int) {
	counts, out := map[transition]int{}, map[roadnet.NodeID]int{}
	for _, tr := range allTrips(ds) {
		if !keep(&tr) {
			continue
		}
		for i := 1; i < len(tr.Route.Nodes); i++ {
			counts[transition{tr.Route.Nodes[i-1], tr.Route.Nodes[i]}]++
			out[tr.Route.Nodes[i-1]]++
		}
	}
	return counts, out
}

// adjacency groups a transition-frequency map's keys by source node, each
// list sorted by destination.
func adjacency(freq map[transition]int) map[roadnet.NodeID][]transition {
	adj := map[roadnet.NodeID][]transition{}
	for k := range freq {
		adj[k.from] = append(adj[k.from], k)
	}
	for _, ts := range adj {
		sort.Slice(ts, func(i, j int) bool { return ts[i].to < ts[j].to })
	}
	return adj
}

// refMPR is MPR over the scanned transfer network.
func refMPR(m *MPR, ds *traj.Dataset, from, to roadnet.NodeID) (roadnet.Route, float64, error) {
	if err := validateOD(ds.Graph, from, to); err != nil {
		return roadnet.Route{}, 0, err
	}
	counts, outTotals := scanFootmarks(ds, func(*traj.Trajectory) bool { return true })
	if outTotals[from] < m.MinTransitions {
		return roadnet.Route{}, 0, ErrNotEnoughData
	}
	adj := adjacency(counts)
	dist := map[roadnet.NodeID]float64{from: 0}
	prev := map[roadnet.NodeID]roadnet.NodeID{}
	done := map[roadnet.NodeID]bool{}
	pq := &mprQueue{{node: from, cost: 0}}
	for pq.Len() > 0 {
		it := heap.Pop(pq).(mprItem)
		if done[it.node] {
			continue
		}
		done[it.node] = true
		if it.node == to {
			break
		}
		for _, k := range adj[it.node] {
			if done[k.to] {
				continue
			}
			p := float64(counts[k]) / float64(outTotals[k.from])
			cost := it.cost - math.Log(p)
			if old, ok := dist[k.to]; !ok || cost < old {
				dist[k.to] = cost
				prev[k.to] = k.from
				heap.Push(pq, mprItem{node: k.to, cost: cost})
			}
		}
	}
	cost, ok := dist[to]
	if !ok || !done[to] {
		return roadnet.Route{}, 0, ErrNotEnoughData
	}
	var rev []roadnet.NodeID
	for at := to; ; at = prev[at] {
		rev = append(rev, at)
		if at == from {
			break
		}
	}
	nodes := make([]roadnet.NodeID, len(rev))
	for i, n := range rev {
		nodes[len(rev)-1-i] = n
	}
	return roadnet.Route{Nodes: nodes}, math.Exp(-cost), nil
}

// refMFP is MFP over the scanned time-window footmark graph.
func refMFP(m *MFP, ds *traj.Dataset, from, to roadnet.NodeID, t routing.SimTime) (roadnet.Route, float64, error) {
	if err := validateOD(ds.Graph, from, to); err != nil {
		return roadnet.Route{}, 0, err
	}
	hour := t.HourOfDay()
	freq, _ := scanFootmarks(ds, func(tr *traj.Trajectory) bool {
		d := math.Abs(tr.Depart.HourOfDay() - hour)
		if d > 12 {
			d = 24 - d
		}
		return d <= m.WindowHours
	})
	if len(freq) == 0 {
		return roadnet.Route{}, 0, ErrNotEnoughData
	}
	// Widest path.
	adj := adjacency(freq)
	bottleneck := 0
	best := map[roadnet.NodeID]int{from: math.MaxInt}
	done := map[roadnet.NodeID]bool{}
	pq := &widestQueue{{node: from, width: math.MaxInt}}
	for pq.Len() > 0 {
		it := heap.Pop(pq).(widestItem)
		if done[it.node] {
			continue
		}
		done[it.node] = true
		if it.node == to {
			bottleneck = it.width
			break
		}
		for _, k := range adj[it.node] {
			if done[k.to] {
				continue
			}
			w := min(it.width, freq[k])
			if old, ok := best[k.to]; !ok || w > old {
				best[k.to] = w
				heap.Push(pq, widestItem{node: k.to, width: w})
			}
		}
	}
	if bottleneck < m.MinBottleneck {
		return roadnet.Route{}, 0, ErrNotEnoughData
	}
	cost := routing.CostFn(func(e *roadnet.Edge, _ routing.SimTime) float64 {
		if freq[transition{e.From, e.To}] < bottleneck {
			return math.Inf(1)
		}
		return e.Length
	})
	r, total, err := routing.ShortestPath(ds.Graph, from, to, cost, 0)
	if err != nil || math.IsInf(total, 1) {
		return roadnet.Route{}, 0, ErrNotEnoughData
	}
	return r, float64(bottleneck), nil
}

// tripsBetween returns the trips whose route starts within radius of from
// and ends within radius of to (radius 0: exact endpoints), in corpus order.
func tripsBetween(ds *traj.Dataset, from, to roadnet.NodeID, radius float64) []traj.Trajectory {
	ok := func(a, b geo.Point) bool {
		if radius <= 0 {
			return a == b
		}
		return geo.Dist(a, b) <= radius
	}
	fp, tp := ds.Graph.Node(from).Pt, ds.Graph.Node(to).Pt
	var out []traj.Trajectory
	for _, tr := range allTrips(ds) {
		if tr.Route.Empty() {
			continue
		}
		if ok(ds.Graph.Node(tr.Route.Source()).Pt, fp) && ok(ds.Graph.Node(tr.Route.Dest()).Pt, tp) {
			out = append(out, tr)
		}
	}
	return out
}

// refLDR is LDR over the matching trips themselves.
func refLDR(m *LDR, ds *traj.Dataset, from, to roadnet.NodeID) (roadnet.Route, float64, error) {
	if err := validateOD(ds.Graph, from, to); err != nil {
		return roadnet.Route{}, 0, err
	}
	trips := tripsBetween(ds, from, to, m.MatchRadius)
	if len(trips) < m.MinSupport {
		return roadnet.Route{}, 0, ErrNotEnoughData
	}
	byDriver := map[traj.DriverID][]roadnet.Route{}
	for _, tr := range trips {
		byDriver[tr.Driver] = append(byDriver[tr.Driver], tr.Route)
	}
	var expertVotes []roadnet.Route
	for _, routes := range byDriver {
		if len(routes) < m.MinDriverTrips {
			continue
		}
		personal, _, _ := modeRoute(routes)
		if !personal.Empty() {
			expertVotes = append(expertVotes, personal)
		}
	}
	if len(expertVotes) > 0 {
		route, votes, total := modeRoute(expertVotes)
		return route, float64(votes) / float64(total), nil
	}
	var all []roadnet.Route
	for _, tr := range trips {
		all = append(all, tr.Route)
	}
	route, votes, total := modeRoute(all)
	if route.Empty() {
		return roadnet.Route{}, 0, ErrNotEnoughData
	}
	return route, float64(votes) / float64(total), nil
}

// modeRoute returns the most common route in rs (by exact node sequence),
// its vote count, and the total number of votes. Ties break on the smaller
// route string.
func modeRoute(rs []roadnet.Route) (roadnet.Route, int, int) {
	type bucket struct {
		route roadnet.Route
		votes int
	}
	groups := map[string]*bucket{}
	total := 0
	for _, r := range rs {
		if r.Empty() {
			continue
		}
		total++
		k := r.String()
		if b, ok := groups[k]; ok {
			b.votes++
		} else {
			groups[k] = &bucket{route: r, votes: 1}
		}
	}
	var best *bucket
	bestKey := ""
	for k, b := range groups {
		if best == nil || b.votes > best.votes || (b.votes == best.votes && k < bestKey) {
			best, bestKey = b, k
		}
	}
	if best == nil {
		return roadnet.Route{}, 0, 0
	}
	return best.route, best.votes, total
}

// sameAnswer fails unless two miner answers are bit-identical: the same
// route, the same support bits and the same error class.
func sameAnswer(t *testing.T, what string, gotR roadnet.Route, gotS float64, gotErr error, wantR roadnet.Route, wantS float64, wantErr error) {
	t.Helper()
	if (gotErr == nil) != (wantErr == nil) || errors.Is(gotErr, ErrNotEnoughData) != errors.Is(wantErr, ErrNotEnoughData) ||
		!gotR.Equal(wantR) || math.Float64bits(gotS) != math.Float64bits(wantS) {
		t.Fatalf("%s: got (%v, %v, %v), reference (%v, %v, %v)", what, gotR, gotS, gotErr, wantR, wantS, wantErr)
	}
}

// parallelLadder is the ladder with a second, longer 0→1 edge and a
// second, shorter 4→5 edge: each node pair's hops count on the first edge
// FindEdge returns, and MFP must still be free to drive either edge of an
// allowed pair.
func parallelLadder() *roadnet.Graph {
	g := ladder()
	g.AddEdge(0, 1, roadnet.Arterial, 0, 0, 180)
	g.AddEdge(4, 5, roadnet.Highway, 0, 0, 60)
	return g
}

// TestMinersParallelEdgesMatchReference: on a graph with parallel edge
// pairs, MPR and MFP must answer exactly as the map-based references for
// every OD pair at several departure times, on three corpora: random trips;
// two equally probable MPR paths, where the queue's node order decides; and
// two MFP corridors that both carry the bottleneck, where only the short
// parallel 4→5 edge makes the top one shorter.
func TestMinersParallelEdgesMatchReference(t *testing.T) {
	g := parallelLadder()
	if e, _ := g.FindEdge(0, 1); e == roadnet.EdgeID(g.NumEdges()-2) {
		t.Fatal("the parallel 0→1 edge must not be the canonical one")
	}
	rng := rand.New(rand.NewSource(3))
	paths := [][]roadnet.NodeID{
		{0, 1, 2, 5}, {0, 3, 4, 5}, {0, 1, 4, 5}, {3, 4, 5, 2}, {1, 4, 5}, {0, 1}, {4, 5, 2, 1},
	}
	var random, tie, corridors []traj.Trajectory
	for i := 0; i < 60; i++ {
		random = append(random, mkTrip(traj.DriverID(i%7), routing.SimTime(rng.Float64()*1440), paths[rng.Intn(len(paths))]...))
	}
	for i := 0; i < 4; i++ {
		tie = append(tie, mkTrip(traj.DriverID(i), routing.At(0, 9, 0), []roadnet.NodeID{0, 1 + 2*roadnet.NodeID(i/2), 4, 5}...))
		corridors = append(corridors, mkTrip(traj.DriverID(i), routing.At(0, 12, 0), 0, 1, 2, 5), mkTrip(traj.DriverID(i), routing.At(0, 12, 0), 0, 3, 4, 5))
	}
	mpr, mfp := NewMPR(), NewMFP()
	for _, trips := range [][]traj.Trajectory{random, tie, corridors} {
		ds := traj.NewDataset(g, nil, trips[:len(trips)/2])
		ds.IngestTrips(trips[len(trips)/2:])
		for from := roadnet.NodeID(0); from < 6; from++ {
			for to := roadnet.NodeID(0); to < 6; to++ {
				gr, gs, ge := mpr.Mine(ds, from, to, 0)
				wr, ws, we := refMPR(mpr, ds, from, to)
				sameAnswer(t, "MPR", gr, gs, ge, wr, ws, we)
				for _, h := range []float64{0, 6, 8.5, 12, 19.25} {
					tm := routing.At(0, 0, 0).Add(h * 60)
					gr, gs, ge := mfp.Mine(ds, from, to, tm)
					wr, ws, we := refMFP(mfp, ds, from, to, tm)
					sameAnswer(t, "MFP", gr, gs, ge, wr, ws, we)
				}
			}
		}
	}
}

// TestMinersMatchReference: the three miners against their per-trip
// references on a built and a grown corpus, for corpus-route and uniform
// ODs, LDR at radii 0, 150 and 300. On top of random trips, crafted drivers
// drive alternative routes of chosen ODs so that LDR's personal modes,
// expert votes and fallback modes tie — the tie-break on route strings
// decides — and so that some drivers sit exactly at MinDriverTrips.
func TestMinersMatchReference(t *testing.T) {
	g := corpusGraph(t)
	templates := routeTemplates(t, g, 30, 11)
	trips := syntheticTrips(templates, 1200, 12)
	var crafted [][2]roadnet.NodeID
	for k, tpl := range append(templates[:10:10], routeTemplates(t, g, 12, 19)...) {
		alts, _, err := routing.KShortest(g, tpl.Source(), tpl.Dest(), 3, routing.DistanceCost, 0)
		if err != nil || len(alts) < 2 {
			continue
		}
		crafted = append(crafted, [2]roadnet.NodeID{tpl.Source(), tpl.Dest()})
		add := func(d int, r roadnet.Route, n int) {
			for range n {
				trips = append(trips, traj.Trajectory{Driver: traj.DriverID(100 + 10*k + d), Depart: routing.At(k%7, 8, 0), Route: r})
			}
		}
		if k < 10 || k%2 == 0 {
			// A personal tie, an expert at exactly MinDriverTrips voting
			// otherwise (an expert-vote tie on the new ODs), a non-expert.
			add(0, alts[0], 2)
			add(0, alts[1], 2)
			add(1, alts[len(alts)-1], 2)
			add(2, alts[1], 1)
		} else {
			// No expert: the fallback mode ties.
			add(0, alts[0], 1)
			add(1, alts[0], 1)
			add(2, alts[1], 1)
			add(3, alts[1], 1)
		}
	}
	built, grown := twinDatasets(t, g, trips)
	rng := rand.New(rand.NewSource(13))
	queries := 150
	if testing.Short() {
		queries = 40
	}
	for _, ds := range []*traj.Dataset{built, grown} {
		for q := 0; q < len(crafted)+queries; q++ {
			var from, to roadnet.NodeID
			switch {
			case q < len(crafted):
				from, to = crafted[q][0], crafted[q][1]
			case q%2 == 0:
				r := templates[rng.Intn(len(templates))]
				from, to = r.Source(), r.Dest()
			default:
				from = roadnet.NodeID(rng.Intn(g.NumNodes()))
				to = roadnet.NodeID(rng.Intn(g.NumNodes()))
			}
			tm := routing.SimTime(rng.Float64() * 7 * 24 * 60)
			gr, gs, ge := NewMPR().Mine(ds, from, to, tm)
			wr, ws, we := refMPR(NewMPR(), ds, from, to)
			sameAnswer(t, "MPR", gr, gs, ge, wr, ws, we)
			gr, gs, ge = NewMFP().Mine(ds, from, to, tm)
			wr, ws, we = refMFP(NewMFP(), ds, from, to, tm)
			sameAnswer(t, "MFP", gr, gs, ge, wr, ws, we)
			for _, radius := range []float64{0, 150, 300} {
				m := NewLDR()
				m.MatchRadius = radius
				gr, gs, ge := m.Mine(ds, from, to, tm)
				wr, ws, we := refLDR(m, ds, from, to)
				sameAnswer(t, "LDR", gr, gs, ge, wr, ws, we)
			}
		}
	}
}
