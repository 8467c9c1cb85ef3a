package routing

// This file preserves the pre-rewrite engine — container/heap priority queue
// with boxed *pqItem entries, per-search O(|V|) array allocation and
// clearing, map-based ban sets, and unoptimized Yen with a full sort per
// round — as the equivalence baseline. The rewritten engine must return
// bit-identical routes and costs; see equivalence_test.go. The only change
// from the historical code is cost(e, t) → cost.Cost(e, t) for the CostFunc
// interface.

import (
	"container/heap"
	"math"
	"sort"

	"crowdplanner/internal/geo"
	"crowdplanner/internal/roadnet"
)

type refPQItem struct {
	node roadnet.NodeID
	prio float64
	idx  int
}

type refPQ []*refPQItem

func (pq refPQ) Len() int { return len(pq) }
func (pq refPQ) Less(i, j int) bool {
	if pq[i].prio != pq[j].prio {
		return pq[i].prio < pq[j].prio
	}
	return pq[i].node < pq[j].node
}
func (pq refPQ) Swap(i, j int) {
	pq[i], pq[j] = pq[j], pq[i]
	pq[i].idx = i
	pq[j].idx = j
}
func (pq *refPQ) Push(x any) {
	it := x.(*refPQItem)
	it.idx = len(*pq)
	*pq = append(*pq, it)
}
func (pq *refPQ) Pop() any {
	old := *pq
	n := len(old)
	it := old[n-1]
	old[n-1] = nil
	*pq = old[:n-1]
	return it
}

type refBanSet struct {
	nodes map[roadnet.NodeID]bool
	edges map[roadnet.EdgeID]bool
}

func (b *refBanSet) bansNode(n roadnet.NodeID) bool { return b != nil && b.nodes[n] }
func (b *refBanSet) bansEdge(e roadnet.EdgeID) bool { return b != nil && b.edges[e] }

func refShortestPath(g *roadnet.Graph, src, dst roadnet.NodeID, cost CostFunc, t SimTime) (roadnet.Route, float64, error) {
	return refShortest(g, src, dst, cost, t, nil, nil)
}

func refAStar(g *roadnet.Graph, src, dst roadnet.NodeID, cost CostFunc, t SimTime, minCostPerMeter float64) (roadnet.Route, float64, error) {
	if minCostPerMeter <= 0 {
		return refShortest(g, src, dst, cost, t, nil, nil)
	}
	dstPt := g.Node(dst).Pt
	h := func(n roadnet.NodeID) float64 {
		return geo.Dist(g.Node(n).Pt, dstPt) * minCostPerMeter
	}
	return refShortest(g, src, dst, cost, t, h, nil)
}

func refShortest(g *roadnet.Graph, src, dst roadnet.NodeID, cost CostFunc, t SimTime, h func(roadnet.NodeID) float64, ban *refBanSet) (roadnet.Route, float64, error) {
	n := g.NumNodes()
	if int(src) >= n || int(dst) >= n || src < 0 || dst < 0 {
		return roadnet.Route{}, 0, ErrNoRoute
	}
	if ban.bansNode(src) || ban.bansNode(dst) {
		return roadnet.Route{}, 0, ErrNoRoute
	}
	if src == dst {
		return roadnet.NewRoute(src), 0, nil
	}
	dist := make([]float64, n)
	for i := range dist {
		dist[i] = math.Inf(1)
	}
	prev := make([]roadnet.NodeID, n)
	for i := range prev {
		prev[i] = -1
	}
	done := make([]bool, n)

	dist[src] = 0
	pq := refPQ{}
	heap.Init(&pq)
	start := &refPQItem{node: src, prio: 0}
	if h != nil {
		start.prio = h(src)
	}
	heap.Push(&pq, start)

	for pq.Len() > 0 {
		it := heap.Pop(&pq).(*refPQItem)
		u := it.node
		if done[u] {
			continue
		}
		done[u] = true
		if u == dst {
			break
		}
		for _, eid := range g.Out(u) {
			if ban.bansEdge(eid) {
				continue
			}
			e := g.Edge(eid)
			v := e.To
			if done[v] || ban.bansNode(v) {
				continue
			}
			c := cost.Cost(e, t.Add(dist[u]))
			if c < 0 {
				c = 0
			}
			nd := dist[u] + c
			if nd < dist[v] {
				dist[v] = nd
				prev[v] = u
				prio := nd
				if h != nil {
					prio += h(v)
				}
				heap.Push(&pq, &refPQItem{node: v, prio: prio})
			}
		}
	}

	if math.IsInf(dist[dst], 1) {
		return roadnet.Route{}, 0, ErrNoRoute
	}
	var rev []roadnet.NodeID
	for at := dst; at != -1; at = prev[at] {
		rev = append(rev, at)
		if at == src {
			break
		}
	}
	nodes := make([]roadnet.NodeID, len(rev))
	for i, nd := range rev {
		nodes[len(rev)-1-i] = nd
	}
	return roadnet.Route{Nodes: nodes}, dist[dst], nil
}

func refKShortest(g *roadnet.Graph, src, dst roadnet.NodeID, k int, cost CostFunc, t SimTime) ([]roadnet.Route, []float64, error) {
	if k <= 0 {
		return nil, nil, nil
	}
	best, bestCost, err := refShortestPath(g, src, dst, cost, t)
	if err != nil {
		return nil, nil, err
	}
	routes := []roadnet.Route{best}
	costs := []float64{bestCost}

	type candidate struct {
		route roadnet.Route
		cost  float64
	}
	var cands []candidate

	seen := map[string]bool{routeKey(best): true}

	for len(routes) < k {
		prevRoute := routes[len(routes)-1]
		for i := 0; i < len(prevRoute.Nodes)-1; i++ {
			spurNode := prevRoute.Nodes[i]
			rootNodes := prevRoute.Nodes[:i+1]

			ban := &refBanSet{
				nodes: make(map[roadnet.NodeID]bool),
				edges: make(map[roadnet.EdgeID]bool),
			}
			for _, r := range routes {
				if len(r.Nodes) > i && equalPrefix(r.Nodes, rootNodes) {
					if eid, ok := g.FindEdge(r.Nodes[i], r.Nodes[i+1]); ok {
						ban.edges[eid] = true
					}
				}
			}
			for _, n := range rootNodes[:len(rootNodes)-1] {
				ban.nodes[n] = true
			}

			spurRoute, spurCost, err := refShortest(g, spurNode, dst, cost, t, nil, ban)
			if err != nil {
				continue
			}
			total := make([]roadnet.NodeID, 0, i+len(spurRoute.Nodes))
			total = append(total, rootNodes[:i]...)
			total = append(total, spurRoute.Nodes...)
			cand := roadnet.Route{Nodes: total}
			key := routeKey(cand)
			if seen[key] {
				continue
			}
			seen[key] = true
			rootCost := refPrefixCost(g, rootNodes, cost, t)
			cands = append(cands, candidate{route: cand, cost: rootCost + spurCost})
		}
		if len(cands) == 0 {
			break
		}
		sort.Slice(cands, func(a, b int) bool {
			if cands[a].cost != cands[b].cost {
				return cands[a].cost < cands[b].cost
			}
			return routeKey(cands[a].route) < routeKey(cands[b].route)
		})
		next := cands[0]
		cands = cands[1:]
		routes = append(routes, next.route)
		costs = append(costs, next.cost)
	}
	return routes, costs, nil
}

// routeKey renders a route as a compact string key for dedup maps. The
// production engine keeps candidates as yenState slab ranges, distinct by
// construction; the reference keeps its string-keyed dedup, and lessSeqLE
// is pinned against this rendering (see equivalence_test.go).
func routeKey(r roadnet.Route) string { return nodesKey(r.Nodes) }

func nodesKey(nodes []roadnet.NodeID) string {
	b := make([]byte, 0, len(nodes)*4)
	for _, n := range nodes {
		b = append(b, byte(n), byte(n>>8), byte(n>>16), byte(n>>24))
	}
	return string(b)
}

func refPrefixCost(g *roadnet.Graph, nodes []roadnet.NodeID, cost CostFunc, t SimTime) float64 {
	var total float64
	for i := 1; i < len(nodes); i++ {
		if eid, ok := g.FindEdge(nodes[i-1], nodes[i]); ok {
			total += cost.Cost(g.Edge(eid), t.Add(total))
		}
	}
	return total
}
