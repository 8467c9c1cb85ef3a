package routing

import (
	"math"
	"math/bits"
	"sync"

	"crowdplanner/internal/roadnet"
)

// KShortest returns up to k loopless routes from src to dst, using Yen's
// algorithm with Lawler's optimization. It returns ErrNoRoute when not even
// one route exists. The routes are distinct node sequences; a hop between
// nodes joined by parallel edges is priced on the cheapest of them.
//
// The first route and its cost are AStar's. Each later route is a root
// prefix of an accepted route, priced along the route from t, plus a spur
// search priced as if departing at t. For a time-independent cost such as
// DistanceCost the routes are therefore the k cheapest loopless routes in
// increasing cost order. Under a time-dependent cost such as TravelTimeCost
// the reported costs are approximations and need not increase.
//
// Lawler's optimization: when the i-th accepted route deviated from its
// parent at index d, spurring it at any index below d would reproduce
// candidates already generated when the shared prefix was processed (the ban
// set for that prefix only grows when a route deviating at that index is
// accepted — and that route is itself re-spurred there). Skipping those
// indices turns O(L) spur searches per round into O(L - d) while generating
// the exact same candidate pool round for round, so the output — routes and
// costs both — is that of unoptimized Yen over the same searches. Against a
// Yen whose spur searches are plain Dijkstra the output is bit-identical
// only absent exact cost ties, because these spur searches are
// goal-directed and may settle a different one of two tied routes.
//
// The candidates need no dedup: they are distinct by construction (Lawler's
// partition). Each pooled candidate is the cheapest path of one subspace:
// the paths that share its root and leave the root on a hop not banned
// there. Accepting a route splits its subspace at every index from its
// deviation on, and each spur there bans the root's nodes and every edge
// of the next hop of each accepted route sharing the root — exactly the
// other subspaces. The subspaces are therefore disjoint, and no spur can
// return a sequence already pooled or accepted, whatever the costs.
// Banning every parallel edge of a hop, not just the one a route took, is
// what keeps this true on multigraphs; FuzzRouting reports a route
// returned twice if it ever lapses.
func KShortest(g *roadnet.Graph, src, dst roadnet.NodeID, k int, cost CostFunc, t SimTime) ([]roadnet.Route, []float64, error) {
	return kShortest(g, src, dst, k, cost, t, nil)
}

// kShortest is the shared Yen core; prep != nil runs every spur search with
// the landmark heuristic (Preprocessed.KShortest).
//
// All per-candidate state lives in a pooled yenState: candidate node
// sequences append into one slab, and the candidate heap is an inline value
// heap of slab ranges ordered by (cost, little-endian-byte-lexicographic
// sequence) — the exact order the old string keys compared in, so the
// accepted routes are bit-identical.
func kShortest(g *roadnet.Graph, src, dst roadnet.NodeID, k int, cost CostFunc, t SimTime, prep *Preprocessed) ([]roadnet.Route, []float64, error) {
	if k <= 0 {
		return nil, nil, nil
	}
	counters.kshortest.Add(1)
	ws := acquireSpace(g)
	defer releaseSpace(ws)
	ys := acquireYen()
	defer releaseYen(ys)

	// Goal-directed throughout: banning nodes/edges only removes paths, so
	// the cost function's per-meter bound — and any landmark bound — stays
	// admissible for every spur search, and each one settles a fraction of
	// the graph.
	mcpm := cost.MinCostPerMeter(g)

	bestPath, bestCost, err := searchShared(g, src, dst, cost, t, mcpm, ws, false, prep, nil)
	if err != nil {
		return nil, nil, err
	}
	routes := []roadnet.Route{materializeRoute(bestPath)}
	costs := []float64{bestCost}
	devs := []int{0} // deviation index of each accepted route

	for len(routes) < k {
		prevRoute := routes[len(routes)-1].Nodes
		// Root-prefix costs along the previous route, computed once and
		// shared by every spur index (the old engine re-walked the prefix
		// per index; the accumulation sequence — and hence every float —
		// is identical).
		prefix := rootCosts(g, prevRoute, cost, t, ys.prefix)
		ys.prefix = prefix
		for i := devs[len(routes)-1]; i < len(prevRoute)-1; i++ {
			spurNode := prevRoute[i]
			rootNodes := prevRoute[:i+1]

			ws.resetBans()
			// Ban edges that would recreate an already-found route sharing
			// this root: every edge of its next hop, since a parallel edge
			// left open would let the spur re-find the same node sequence.
			for _, r := range routes {
				if len(r.Nodes) > i+1 && equalPrefix(r.Nodes, rootNodes) {
					for _, eid := range g.Out(r.Nodes[i]) {
						if g.Edge(eid).To == r.Nodes[i+1] {
							ws.banE(eid)
						}
					}
				}
			}
			// Ban root nodes (except the spur node) to keep routes loopless.
			for _, n := range rootNodes[:len(rootNodes)-1] {
				ws.ban(n)
			}

			spurPath, spurCost, err := searchShared(g, spurNode, dst, cost, t, mcpm, ws, true, prep, nil)
			if err != nil {
				continue
			}
			// Append root[:i] + spur to the slab (spurPath is backed by
			// ws.path and consumed before the next search). The cost is the
			// root prefix plus the spur, priced as if departing at t, not at
			// t+prefix[i]; for time-dependent costs this is an
			// approximation, consistent with how Yen is normally applied.
			off := int32(len(ys.slab))
			ys.slab = append(ys.slab, rootNodes[:i]...)
			ys.slab = append(ys.slab, spurPath...)
			ys.pushCand(yenCand{cost: prefix[i] + spurCost, off: off, ln: int32(len(ys.slab)) - off, dev: int32(i)})
		}
		if len(ys.cands) == 0 {
			break
		}
		next := ys.popCand()
		routes = append(routes, materializeRoute(ys.slab[next.off:next.off+next.ln]))
		costs = append(costs, next.cost)
		devs = append(devs, int(next.dev))
	}
	return routes, costs, nil
}

// materializeRoute copies a workspace- or slab-backed node sequence into a
// caller-owned Route.
func materializeRoute(nodes []roadnet.NodeID) roadnet.Route {
	out := make([]roadnet.NodeID, len(nodes))
	copy(out, nodes)
	return roadnet.Route{Nodes: out}
}

// rootCosts returns prefix costs along nodes: out[i] is the cost of the path
// nodes[0..i] (i edges), accumulated under the same clock-advance rule the
// old per-index prefixCost used, each hop on its cheapest edge at the hop's
// departure time (the edge a search takes). A hop with no edge prices at
// +Inf, so a root that is not a path is never priced below its true cost.
// Yen never passes one: every root is a prefix of an accepted route, which
// a search returned. buf, when large enough, is reused as the output's
// backing array (Yen passes its pooled prefix buffer; pass nil for a fresh
// slice).
func rootCosts(g *roadnet.Graph, nodes []roadnet.NodeID, cost CostFunc, t SimTime, buf []float64) []float64 {
	if cap(buf) < len(nodes) {
		buf = make([]float64, len(nodes))
	}
	out := buf[:len(nodes)]
	clear(out)
	var total float64
	for i := 1; i < len(nodes); i++ {
		total += hopCost(g, nodes[i-1], nodes[i], cost, t.Add(total))
		out[i] = total
	}
	return out
}

// hopCost returns the cost at time t of the cheapest u→v edge, or +Inf when
// no edge joins u to v.
func hopCost(g *roadnet.Graph, u, v roadnet.NodeID, cost CostFunc, t SimTime) float64 {
	c, ok := math.Inf(1), false
	for _, eid := range g.Out(u) {
		if e := g.Edge(eid); e.To == v {
			if ec := cost.Cost(e, t); !ok || ec < c {
				c, ok = ec, true
			}
		}
	}
	return c
}

func equalPrefix(nodes, prefix []roadnet.NodeID) bool {
	if len(nodes) < len(prefix) {
		return false
	}
	for i := range prefix {
		if nodes[i] != prefix[i] {
			return false
		}
	}
	return true
}

// yenCand is one not-yet-accepted candidate route, referencing its node
// sequence as a [off, off+ln) range of the yenState slab. Candidates are
// kept in a min-heap ordered by (cost, sequence) — the same strict total
// order the old engine's full sort.Slice per round selected by — so popping
// the heap yields the same route the sort would have put first.
type yenCand struct {
	cost float64
	off  int32
	ln   int32
	dev  int32
}

// yenState is the pooled per-call scratch of one KShortest run: the sequence
// slab, the candidate heap, and the prefix-cost buffer. Everything is
// length-reset on reuse, so a warm KShortest allocates only its results.
type yenState struct {
	slab   []roadnet.NodeID // every candidate sequence, back to back
	cands  []yenCand        // candidate min-heap
	prefix []float64        // rootCosts buffer
}

var yenPool sync.Pool

func acquireYen() *yenState {
	if v := yenPool.Get(); v != nil {
		ys := v.(*yenState)
		ys.slab = ys.slab[:0]
		ys.cands = ys.cands[:0]
		return ys
	}
	return &yenState{}
}

func releaseYen(ys *yenState) { yenPool.Put(ys) }

// lessSeqLE orders node sequences by the lexicographic order of their
// little-endian 4-byte renderings — exactly how the old string keys
// compared, which is what keeps the candidate tie-break (and therefore the
// accepted routes) bit-identical to the string-keyed engine. For one node,
// LE-byte lexicographic order is numeric order of the byte-reversed value.
//
//cplint:hotpath
func lessSeqLE(a, b []roadnet.NodeID) bool {
	n := min(len(a), len(b))
	for i := 0; i < n; i++ {
		if a[i] != b[i] {
			return bits.ReverseBytes32(uint32(a[i])) < bits.ReverseBytes32(uint32(b[i]))
		}
	}
	return len(a) < len(b)
}

//cplint:hotpath
func (ys *yenState) candLess(a, b yenCand) bool {
	if a.cost != b.cost {
		return a.cost < b.cost
	}
	return lessSeqLE(ys.slab[a.off:a.off+a.ln], ys.slab[b.off:b.off+b.ln])
}

// pushCand / popCand are an inline binary value heap over ys.cands: same
// strict total order as the old container/heap candidate queue, minus the
// interface boxing its Push/Pop paid per candidate.
//
//cplint:hotpath
func (ys *yenState) pushCand(c yenCand) {
	h := append(ys.cands, c)
	i := len(h) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !ys.candLess(h[i], h[p]) {
			break
		}
		h[i], h[p] = h[p], h[i]
		i = p
	}
	ys.cands = h
}

//cplint:hotpath
func (ys *yenState) popCand() yenCand {
	h := ys.cands
	top := h[0]
	n := len(h) - 1
	h[0] = h[n]
	h = h[:n]
	ys.cands = h
	i := 0
	for {
		l := 2*i + 1
		if l >= n {
			break
		}
		m := l
		if r := l + 1; r < n && ys.candLess(h[r], h[l]) {
			m = r
		}
		if !ys.candLess(h[m], h[i]) {
			break
		}
		h[i], h[m] = h[m], h[i]
		i = m
	}
	return top
}
