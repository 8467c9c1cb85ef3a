package routing

import (
	"math/bits"
	"sync"

	"crowdplanner/internal/roadnet"
)

// KShortest returns up to k loopless minimum-cost routes from src to dst in
// increasing cost order, using Yen's algorithm with Lawler's optimization.
// It returns ErrNoRoute when not even one route exists. The routes are
// distinct node sequences.
//
// Lawler's optimization: when the i-th accepted route deviated from its
// parent at index d, spurring it at any index below d would reproduce
// candidates already generated when the shared prefix was processed (the ban
// set for that prefix only grows when a route deviating at that index is
// accepted — and that route is itself re-spurred there). Skipping those
// indices turns O(L) spur searches per round into O(L - d) while generating
// the exact same candidate pool round for round, so the output — routes and
// costs both — is bit-identical to unoptimized Yen.
func KShortest(g *roadnet.Graph, src, dst roadnet.NodeID, k int, cost CostFunc, t SimTime) ([]roadnet.Route, []float64, error) {
	return kShortest(g, src, dst, k, cost, t, nil)
}

// kShortest is the shared Yen core; prep != nil runs every spur search with
// the landmark heuristic (Preprocessed.KShortest).
//
// All per-candidate state lives in a pooled yenState: candidate node
// sequences append into one slab, dedup is an open-chain hash set over slab
// ranges (replacing the string-keyed map that dominated the old allocation
// profile), and the candidate heap is an inline value heap ordered by
// (cost, little-endian-byte-lexicographic sequence) — the exact order the
// old string keys compared in, so the accepted routes are bit-identical.
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
	ys.add(bestPath)

	for len(routes) < k {
		prevRoute := routes[len(routes)-1].Nodes
		// Root-prefix costs along the previous route, computed once and
		// shared by every spur index (the old engine re-walked the prefix
		// per index; the accumulation sequence — and hence every float —
		// is identical). broken is the index of the first missing edge:
		// spur indices beyond it would price their root wrong, so their
		// candidates are dropped rather than underpriced (see rootCosts).
		prefix, broken := rootCosts(g, prevRoute, cost, t, ys.prefix)
		ys.prefix = prefix
		for i := devs[len(routes)-1]; i < len(prevRoute)-1; i++ {
			if i > broken {
				break
			}
			spurNode := prevRoute[i]
			rootNodes := prevRoute[:i+1]

			ws.resetBans()
			// Ban edges that would recreate an already-found route sharing
			// this root.
			for _, r := range routes {
				if len(r.Nodes) > i+1 && equalPrefix(r.Nodes, rootNodes) {
					if eid, ok := g.FindEdge(r.Nodes[i], r.Nodes[i+1]); ok {
						ws.banE(eid)
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
			// Assemble root[:i] + spur into the scratch (spurPath is backed
			// by ws.path and consumed before the next search), then dedup.
			ys.tmp = ys.tmp[:0]
			ys.tmp = append(ys.tmp, rootNodes[:i]...)
			ys.tmp = append(ys.tmp, spurPath...)
			off, ln, added := ys.add(ys.tmp)
			if !added {
				continue
			}
			// Cost of root prefix plus spur. The prefix is priced under the
			// same departure time; for time-dependent costs this is an
			// approximation, consistent with how Yen is normally applied.
			ys.pushCand(yenCand{cost: prefix[i] + spurCost, off: off, ln: ln, dev: int32(i)})
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
// old per-index prefixCost used. broken is the index of the first node pair
// with no connecting edge (len(nodes)-1 when the whole chain exists): a spur
// index i > broken has a root whose cost cannot be computed, and its
// candidates must be dropped — the old engine silently priced such roots as
// if the missing edges were free, underpricing the candidate. buf, when
// large enough, is reused as the output's backing array (Yen passes its
// pooled prefix buffer; pass nil for a fresh slice).
func rootCosts(g *roadnet.Graph, nodes []roadnet.NodeID, cost CostFunc, t SimTime, buf []float64) (out []float64, broken int) {
	if cap(buf) < len(nodes) {
		buf = make([]float64, len(nodes))
	}
	out = buf[:len(nodes)]
	clear(out)
	broken = len(nodes) - 1
	var total float64
	for i := 1; i < len(nodes); i++ {
		eid, ok := g.FindEdge(nodes[i-1], nodes[i])
		if !ok {
			broken = i - 1
			return out[:i], broken
		}
		total += cost.Cost(g.Edge(eid), t.Add(total))
		out[i] = total
	}
	return out, broken
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
// slab with its dedup hash set, the candidate heap, and the prefix-cost and
// assembly buffers. Everything is length-reset on reuse, so a warm KShortest
// allocates only its results.
type yenState struct {
	slab []roadnet.NodeID // all deduped candidate sequences, back to back
	off  []int32          // per-sequence start offset in slab
	ln   []int32          // per-sequence length
	hs   []uint64         // per-sequence hash (also used on table growth)
	next []int32          // per-sequence chain link, -1 ends a bucket
	tab  []int32          // hash buckets: index of chain head, -1 empty

	tmp    []roadnet.NodeID // candidate assembly scratch
	cands  []yenCand        // candidate min-heap
	prefix []float64        // rootCosts buffer
}

var yenPool sync.Pool

func acquireYen() *yenState {
	if v := yenPool.Get(); v != nil {
		ys := v.(*yenState)
		ys.reset()
		return ys
	}
	ys := &yenState{tab: make([]int32, 64)}
	for i := range ys.tab {
		ys.tab[i] = -1
	}
	return ys
}

func releaseYen(ys *yenState) { yenPool.Put(ys) }

func (ys *yenState) reset() {
	ys.slab = ys.slab[:0]
	ys.off = ys.off[:0]
	ys.ln = ys.ln[:0]
	ys.hs = ys.hs[:0]
	ys.next = ys.next[:0]
	for i := range ys.tab {
		ys.tab[i] = -1
	}
	ys.tmp = ys.tmp[:0]
	ys.cands = ys.cands[:0]
}

// hashNodes is FNV-1a over the node IDs (one 32-bit word each) — the dedup
// key function replacing the old per-candidate string rendering.
//
//cplint:hotpath
func hashNodes(nodes []roadnet.NodeID) uint64 {
	h := uint64(1469598103934665603)
	for _, n := range nodes {
		h = (h ^ uint64(uint32(n))) * 1099511628211
	}
	return h
}

// add inserts nodes into the dedup set, returning its slab range and whether
// it was newly added (false: an identical sequence was already present, and
// the returned range is the existing copy's).
//
//cplint:hotpath
func (ys *yenState) add(nodes []roadnet.NodeID) (int32, int32, bool) {
	h := hashNodes(nodes)
	b := h & uint64(len(ys.tab)-1)
	for idx := ys.tab[b]; idx != -1; idx = ys.next[idx] {
		if ys.hs[idx] == h && ys.seqEqual(idx, nodes) {
			return ys.off[idx], ys.ln[idx], false
		}
	}
	if len(ys.off) >= len(ys.tab)-len(ys.tab)/4 {
		//cplint:ignore hotalloc -- hash-table doubling: amortized across the pooled state's lifetime, runs O(log candidates) times ever
		ys.growTab()
		b = h & uint64(len(ys.tab)-1)
	}
	off := int32(len(ys.slab))
	idx := int32(len(ys.off))
	ys.slab = append(ys.slab, nodes...)
	ys.off = append(ys.off, off)
	ys.ln = append(ys.ln, int32(len(nodes)))
	ys.hs = append(ys.hs, h)
	ys.next = append(ys.next, ys.tab[b])
	ys.tab[b] = idx
	return off, int32(len(nodes)), true
}

//cplint:hotpath
func (ys *yenState) seqEqual(idx int32, nodes []roadnet.NodeID) bool {
	if int(ys.ln[idx]) != len(nodes) {
		return false
	}
	seq := ys.slab[ys.off[idx] : ys.off[idx]+ys.ln[idx]]
	for i := range seq {
		if seq[i] != nodes[i] {
			return false
		}
	}
	return true
}

// growTab doubles the bucket table and relinks every stored sequence from
// its saved hash. Offsets are stable, so only the chain links move.
func (ys *yenState) growTab() {
	nt := make([]int32, len(ys.tab)*2)
	for i := range nt {
		nt[i] = -1
	}
	mask := uint64(len(nt) - 1)
	for i := range ys.hs {
		b := ys.hs[i] & mask
		ys.next[i] = nt[b]
		nt[b] = int32(i)
	}
	ys.tab = nt
}

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
