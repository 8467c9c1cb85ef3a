package routing

import (
	"sync"

	"crowdplanner/internal/roadnet"
)

// maxActiveLandmarks caps the per-query active landmark set. Eight covers
// the useful tightness range — beyond that the extra max() terms cost more
// per relaxed edge than they save in popped nodes — and a fixed cap lets the
// per-query ALT state live inline in the workspace with zero allocations.
const maxActiveLandmarks = 8

// searchSpace is the reusable scratch state of one graph search: the
// dist/prev labels, the settled marks, the priority-queue storage, and the
// node/edge ban marks Yen's spur searches use. Acquiring one from the pool
// and stamping it with a fresh epoch replaces the three O(|V|) allocations
// and clears the old engine paid per search — after warm-up a search
// allocates nothing but its result route.
//
// Epoch stamping: seen[v] == epoch means dist[v]/prev[v] are valid for the
// current search (otherwise v is implicitly unreached, dist +Inf);
// done[v] == epoch means v is settled. beginSearch bumps the epoch, which
// invalidates every label in O(1). The ban marks use an independent epoch
// with the same trick so a Yen spur resets its ban set in O(1) too. On the
// (rare) uint32 wraparound the arrays are cleared for real, keeping stale
// stamps from a search 2^32 epochs ago from aliasing the current one.
type searchSpace struct {
	dist []float64
	prev []roadnet.NodeID
	seen []uint32
	done []uint32
	heap minHeap

	epoch uint32

	banNode  []uint32
	banEdge  []uint32
	banEpoch uint32

	// path is the route-reconstruction scratch: searchShared leaves the
	// found node sequence here, valid until the next search on this
	// workspace. Public entry points copy it into an exact-size result;
	// Yen appends it straight into its candidate scratch without the
	// intermediate allocation.
	path []roadnet.NodeID

	// hseen/hval memoize the heuristic per node within one search. ALT
	// bounds cost a handful of random loads from large landmark tables per
	// evaluation, and grid nodes are re-improved by several incoming edges;
	// the cache turns those repeats into one array read.
	hseen []uint32
	hval  []float64

	// tt prices TravelTimeCost searches with the clock memoised per
	// departure time (see searchShared).
	tt TravelTimeCache

	// ALT state: the per-query active landmarks (indices into the
	// Preprocessed slabs) with their forward/reverse distances at the
	// destination, filled by Preprocessed.activate. altHsrc is the
	// heuristic value at the source, kept for the bound-tightness counter.
	altN     int
	altHsrc  float64
	altLands [maxActiveLandmarks]int32
	altFdst  [maxActiveLandmarks]float64
	altRdst  [maxActiveLandmarks]float64
}

// wsPool recycles searchSpaces across searches and goroutines. Workspaces
// are graph-agnostic scratch: ensure() grows them to the current graph's
// size, and stale labels are unreadable by construction (epoch mismatch).
var wsPool sync.Pool

// acquireSpace returns a workspace sized for g, reusing a pooled one when
// available. Pair with releaseSpace.
func acquireSpace(g *roadnet.Graph) *searchSpace {
	n, m := g.NumNodes(), g.NumEdges()
	if v := wsPool.Get(); v != nil {
		ws := v.(*searchSpace)
		if len(ws.seen) >= n && len(ws.banEdge) >= m {
			counters.poolHits.Add(1)
		} else {
			counters.poolMisses.Add(1)
			ws.ensure(n, m)
		}
		return ws
	}
	counters.poolMisses.Add(1)
	ws := &searchSpace{}
	ws.ensure(n, m)
	return ws
}

// releaseSpace returns ws to the pool.
func releaseSpace(ws *searchSpace) { wsPool.Put(ws) }

// ensure grows the workspace to hold nodes/edges entries. Freshly allocated
// stamps are zero, which never equals an active epoch (beginSearch and
// resetBans skip zero), so grown regions read as unseen/unbanned.
func (ws *searchSpace) ensure(nodes, edges int) {
	if len(ws.seen) < nodes {
		ws.dist = make([]float64, nodes)
		ws.prev = make([]roadnet.NodeID, nodes)
		ws.seen = make([]uint32, nodes)
		ws.done = make([]uint32, nodes)
		ws.banNode = make([]uint32, nodes)
		ws.hseen = make([]uint32, nodes)
		ws.hval = make([]float64, nodes)
	}
	if len(ws.banEdge) < edges {
		ws.banEdge = make([]uint32, edges)
	}
}

// beginSearch starts a new search: bumps the label epoch and empties the
// heap. Returns the active epoch.
//
//cplint:hotpath
func (ws *searchSpace) beginSearch() uint32 {
	ws.epoch++
	if ws.epoch == 0 { // wraparound: clear for real, then skip the zero epoch
		clear(ws.seen)
		clear(ws.done)
		clear(ws.hseen)
		ws.epoch = 1
	}
	ws.heap = ws.heap[:0]
	return ws.epoch
}

// resetBans empties the ban set in O(1) by bumping the ban epoch.
//
//cplint:hotpath
func (ws *searchSpace) resetBans() {
	ws.banEpoch++
	if ws.banEpoch == 0 {
		clear(ws.banNode)
		clear(ws.banEdge)
		ws.banEpoch = 1
	}
}

//cplint:hotpath
func (ws *searchSpace) ban(n roadnet.NodeID) { ws.banNode[n] = ws.banEpoch }

//cplint:hotpath
func (ws *searchSpace) banE(e roadnet.EdgeID) { ws.banEdge[e] = ws.banEpoch }

//cplint:hotpath
func (ws *searchSpace) banned(n roadnet.NodeID) bool { return ws.banNode[n] == ws.banEpoch }

//cplint:hotpath
func (ws *searchSpace) bannedE(e roadnet.EdgeID) bool { return ws.banEdge[e] == ws.banEpoch }
