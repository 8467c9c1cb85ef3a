package popular

import (
	"container/heap"
	"math"
	"slices"

	"crowdplanner/internal/roadnet"
	"crowdplanner/internal/routing"
	"crowdplanner/internal/traj"
)

// MPR is the Most Popular Route miner in the spirit of Chen et al. [4]: it
// builds a transfer network whose edge weights are the empirical transition
// probabilities observed in the trajectory corpus, defines the popularity of
// a route as the product of its transition probabilities, and returns the
// maximum-popularity route (found as a shortest path under -log probability).
//
// Deviation from [4], documented in DESIGN.md: the original conditions
// transfer probabilities on reachability of the destination via an absorbing
// Markov chain; we use the global transition probabilities, which preserves
// the algorithm's qualitative behaviour (strong on dense corridors, erratic
// where data is sparse) at a fraction of the implementation surface.
type MPR struct {
	// MinTransitions is the minimum number of observed transitions leaving
	// the source for the result to count as supported.
	MinTransitions int
}

// NewMPR returns an MPR miner with default thresholds.
func NewMPR() *MPR { return &MPR{MinTransitions: 2} }

// Name implements Miner.
func (m *MPR) Name() string { return "MPR" }

// mprItem is a priority-queue entry for the transfer-network search.
type mprItem struct {
	node roadnet.NodeID
	cost float64
}

type mprQueue []mprItem

func (q mprQueue) Len() int { return len(q) }
func (q mprQueue) Less(i, j int) bool {
	if q[i].cost != q[j].cost {
		return q[i].cost < q[j].cost
	}
	return q[i].node < q[j].node
}
func (q mprQueue) Swap(i, j int) { q[i], q[j] = q[j], q[i] }
func (q *mprQueue) Push(x any)   { *q = append(*q, x.(mprItem)) }
func (q *mprQueue) Pop() any {
	old := *q
	n := len(old)
	it := old[n-1]
	*q = old[:n-1]
	return it
}

// Mine implements Miner. The transfer network is the dataset's corpus-wide
// footmark counts (kept current by ingestion), searched over the road
// graph's own adjacency. Only edges with a count are traversed, and a node
// pair counts on one canonical edge, so each settled node relaxes each
// successor at most once; the queue's (cost, node) order then fixes the
// result whatever order the graph lists a node's edges in.
func (m *MPR) Mine(ds *traj.Dataset, from, to roadnet.NodeID, _ routing.SimTime) (roadnet.Route, float64, error) {
	g := ds.Graph
	if err := validateOD(g, from, to); err != nil {
		return roadnet.Route{}, 0, err
	}
	counts, outTotals := ds.TransitionTotals()
	if int(outTotals[from]) < m.MinTransitions {
		return roadnet.Route{}, 0, ErrNotEnoughData
	}

	// Dijkstra over -log(P) on observed transitions only.
	dist := make([]float64, g.NumNodes())
	for i := range dist {
		dist[i] = math.Inf(1)
	}
	dist[from] = 0
	prev := make([]roadnet.NodeID, g.NumNodes())
	done := make([]bool, g.NumNodes())
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
		for _, e := range g.Out(it.node) {
			c := counts[e]
			if c == 0 {
				continue
			}
			v := g.Edge(e).To
			if done[v] {
				continue
			}
			p := float64(c) / float64(outTotals[it.node])
			if cost := it.cost - math.Log(p); cost < dist[v] {
				dist[v] = cost
				prev[v] = it.node
				heap.Push(pq, mprItem{node: v, cost: cost})
			}
		}
	}
	if !done[to] {
		return roadnet.Route{}, 0, ErrNotEnoughData
	}
	// Reconstruct.
	var rev []roadnet.NodeID
	for at := to; ; {
		rev = append(rev, at)
		if at == from {
			break
		}
		at = prev[at]
	}
	slices.Reverse(rev)
	// Popularity = product of transition probabilities = exp(-cost).
	return roadnet.Route{Nodes: rev}, math.Exp(-dist[to]), nil
}
