package routing

import (
	"errors"
	"math"

	"crowdplanner/internal/geo"
	"crowdplanner/internal/roadnet"
)

// ErrNoRoute is returned when the destination is unreachable from the source.
var ErrNoRoute = errors.New("routing: no route between the given nodes")

// errNodeRange is the argument-validation failure, hoisted to package level
// so the hot search kernel stays allocation-free even on bad queries.
var errNodeRange = errors.New("routing: node out of range")

// errShortSlice rejects a caller-supplied per-node or per-edge slice with
// fewer entries than the graph has nodes or edges.
var errShortSlice = errors.New("routing: slice shorter than the graph")

// ShortestPath returns the minimum-cost route from src to dst under cost,
// departing at time t, along with the total cost.
func ShortestPath(g *roadnet.Graph, src, dst roadnet.NodeID, cost CostFunc, t SimTime) (roadnet.Route, float64, error) {
	ws := acquireSpace(g)
	r, c, err := search(g, src, dst, cost, t, 0, ws, false, nil, nil)
	releaseSpace(ws)
	return r, c, err
}

// AStar is ShortestPath made goal-directed: it uses the straight-line
// distance to dst, scaled by the cost function's MinCostPerMeter lower bound,
// as an admissible and consistent heuristic. It returns the same cost as
// ShortestPath, and the same route absent exact cost ties between distinct
// optimal routes, where the heuristic may settle a different one first. Cost
// functions without a bound (MinCostPerMeter() == 0) fall back to plain
// Dijkstra, so AStar is always a safe drop-in for ShortestPath. For the
// tighter landmark-based heuristic, build a Preprocessed wrapper and use its
// AStar method.
func AStar(g *roadnet.Graph, src, dst roadnet.NodeID, cost CostFunc, t SimTime) (roadnet.Route, float64, error) {
	ws := acquireSpace(g)
	r, c, err := search(g, src, dst, cost, t, cost.MinCostPerMeter(g), ws, false, nil, nil)
	releaseSpace(ws)
	return r, c, err
}

// AStarBounded is AStar with a caller-supplied per-node lower bound on the
// remaining cost: the heuristic at v is max(lb[v], the straight-line bound).
// lb must have an entry per node and be admissible and consistent for dst:
// lb[v] at most the cost of the cheapest route from v to dst, and lb[u] <=
// Cost(e, t) + lb[v] for every edge e = (u, v) and time t. Exact distances
// to dst under static edge weights the cost dominates (DistancesTo) are
// both; +Inf marks a node with no finite-cost route to dst. The cost is then
// that of ShortestPath, as is the route absent exact cost ties.
func AStarBounded(g *roadnet.Graph, src, dst roadnet.NodeID, cost CostFunc, t SimTime, lb []float64) (roadnet.Route, float64, error) {
	if len(lb) < g.NumNodes() {
		return roadnet.Route{}, 0, errShortSlice
	}
	ws := acquireSpace(g)
	r, c, err := search(g, src, dst, cost, t, cost.MinCostPerMeter(g), ws, false, nil, lb)
	releaseSpace(ws)
	return r, c, err
}

// search wraps searchShared, copying the workspace-backed node sequence into
// the one exact-length result slice handed to the caller.
//
//cplint:hotpath
func search(g *roadnet.Graph, src, dst roadnet.NodeID, cost CostFunc, t SimTime, mcpm float64, ws *searchSpace, useBans bool, prep *Preprocessed, lb []float64) (roadnet.Route, float64, error) {
	path, c, err := searchShared(g, src, dst, cost, t, mcpm, ws, useBans, prep, lb)
	if err != nil {
		return roadnet.Route{}, 0, err
	}
	//cplint:ignore hotalloc -- the sanctioned allocation: one exact-length result slice per search (1 alloc/op in BenchmarkShortestPath), handed to the caller so it cannot be pooled
	nodes := make([]roadnet.NodeID, len(path))
	copy(nodes, path)
	return roadnet.Route{Nodes: nodes}, c, nil
}

// searchShared is the shared Dijkstra/A*/ALT core over a caller-supplied
// workspace. mcpm > 0 enables the straight-line goal-directed heuristic;
// lb != nil maxes it with the caller's per-node bound (AStarBounded); prep
// != nil additionally consults the landmark tables (the heuristic becomes
// max(landmark bound, straight-line bound), still admissible and
// consistent); useBans honors the workspace's current node/edge ban set
// (Yen spur searches).
//
// On success the returned node sequence is backed by ws.path: valid until
// the next search on ws, owned by the workspace. Callers that keep it must
// copy (search does); callers that consume it immediately (Yen) skip the
// intermediate allocation entirely. The copies in search and
// in Yen's materializeRoute are pinned by TestALTConcurrent,
// TestConcurrentPoolSharing, TestConcurrentSearchesAreIndependent and
// TestKShortestMatchesReference: each fails if either copy is dropped.
//
// The search is bit-identical to the old container/heap engine: the same
// lazy-deletion queue discipline under the same strict (prio, node) order,
// the same strict-improvement relaxation (an unreached node has implicit
// distance +Inf, so +Inf or NaN edge costs never relax), and the same
// settled-at-pop cost evaluation time t+dist[u]. With a consistent
// heuristic, nodes are likewise settled with final distances when popped, so
// A* — straight-line or landmark — computes the same dist values — and,
// absent exact cost ties between distinct optimal paths, the same prev
// tree — as Dijkstra.
//
// TravelTimeCost is priced through the workspace's TravelTimeCache: every
// out-edge of a settled node departs at the same time, so the clock and the
// congestion factors are evaluated once per settled node, with the same
// bits as TravelTimeCost.Cost.
//
//cplint:hotpath
func searchShared(g *roadnet.Graph, src, dst roadnet.NodeID, cost CostFunc, t SimTime, mcpm float64, ws *searchSpace, useBans bool, prep *Preprocessed, lb []float64) ([]roadnet.NodeID, float64, error) {
	n := g.NumNodes()
	if int(src) >= n || int(dst) >= n || src < 0 || dst < 0 {
		return nil, 0, errNodeRange
	}
	if useBans && (ws.banned(src) || ws.banned(dst)) {
		return nil, 0, ErrNoRoute
	}
	counters.searches.Add(1)
	if mcpm > 0 || lb != nil {
		counters.astar.Add(1)
	}
	if src == dst {
		ws.path = ws.path[:0]
		ws.path = append(ws.path, src)
		return ws.path, 0, nil
	}

	var dstPt geo.Point
	heur := mcpm > 0 || prep != nil || lb != nil
	if heur {
		dstPt = g.Node(dst).Pt
	}
	if prep != nil {
		prep.activate(ws, src, dst)
		if ws.altN > 0 {
			counters.altSearches.Add(1)
			counters.altActive.Add(uint64(ws.altN))
			if ws.altHsrc > geo.Dist(g.Node(src).Pt, dstPt)*mcpm {
				counters.altTightened.Add(1)
			}
		}
	}

	_, timed := cost.(travelTimeCost)
	epoch := ws.beginSearch()
	var pushes uint64

	ws.dist[src] = 0
	ws.prev[src] = -1
	ws.seen[src] = epoch
	start := heapEntry{node: src}
	if heur {
		h := geo.Dist(g.Node(src).Pt, dstPt) * mcpm
		if lb != nil && lb[src] > h {
			h = lb[src]
		}
		if prep != nil {
			h = prep.altBound(ws, src, h)
		}
		start.prio = h
	}
	ws.heap.push(start)
	pushes++

	found := false
	for len(ws.heap) > 0 {
		u := ws.heap.pop().node
		if ws.done[u] == epoch {
			continue
		}
		ws.done[u] = epoch
		if u == dst {
			found = true
			break
		}
		du := ws.dist[u]
		td := t.Add(du)
		for _, eid := range g.Out(u) {
			if useBans && ws.bannedE(eid) {
				continue
			}
			e := g.Edge(eid)
			v := e.To
			if ws.done[v] == epoch {
				continue
			}
			if useBans && ws.banned(v) {
				continue
			}
			var c float64
			if timed {
				c = ws.tt.Cost(e, td)
			} else {
				c = cost.Cost(e, td)
			}
			if c < 0 {
				c = 0
			}
			nd := du + c
			dv := math.Inf(1)
			if ws.seen[v] == epoch {
				dv = ws.dist[v]
			}
			if !(nd < dv) {
				continue
			}
			ws.seen[v] = epoch
			ws.dist[v] = nd
			ws.prev[v] = u
			prio := nd
			if heur {
				// Memoized per search: grid nodes are typically improved
				// by several incoming edges, and the ALT bound costs a
				// handful of random landmark-table loads per evaluation.
				var h float64
				if ws.hseen[v] == epoch {
					h = ws.hval[v]
				} else {
					h = geo.Dist(g.Node(v).Pt, dstPt) * mcpm
					if lb != nil && lb[v] > h {
						h = lb[v]
					}
					if prep != nil {
						h = prep.altBound(ws, v, h)
					}
					ws.hseen[v] = epoch
					ws.hval[v] = h
				}
				prio += h
			}
			ws.heap.push(heapEntry{prio: prio, node: v})
			pushes++
		}
	}
	counters.heapPushes.Add(pushes)

	if !found {
		return nil, 0, ErrNoRoute
	}
	// Reconstruct into the workspace scratch, backwards then reversed in
	// place. Every node on the chain was settled this epoch, so the prev
	// pointers are valid and terminate at src (prev[src] == -1).
	ws.path = ws.path[:0]
	for at := dst; at != -1; at = ws.prev[at] {
		ws.path = append(ws.path, at)
		if at == src {
			break
		}
	}
	path := ws.path
	for i, j := 0, len(path)-1; i < j; i, j = i+1, j-1 {
		path[i], path[j] = path[j], path[i]
	}
	return path, ws.dist[dst], nil
}
