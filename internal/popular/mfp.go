package popular

import (
	"container/heap"
	"math"

	"crowdplanner/internal/roadnet"
	"crowdplanner/internal/routing"
	"crowdplanner/internal/traj"
)

// MFP is the time-period Most Frequent Path miner in the spirit of Luo et
// al. [13]: trips departing within a window of the query time contribute
// footmarks to a frequency graph, and the recommended route maximizes the
// minimum edge frequency along the path (the bottleneck), tie-broken by
// shortest length. The paper's conclusion singles out MFP as the strongest
// non-crowd source, which our E1 experiment reproduces.
type MFP struct {
	// WindowHours is the half-width of the departure-time window (circular
	// over the day).
	WindowHours float64
	// MinBottleneck is the minimum acceptable path bottleneck frequency.
	MinBottleneck int
}

// NewMFP returns an MFP miner with a ±2 h window.
func NewMFP() *MFP { return &MFP{WindowHours: 2, MinBottleneck: 2} }

// Name implements Miner.
func (m *MFP) Name() string { return "MFP" }

// Mine implements Miner. The time-window footmark graph comes from the
// dataset's per-slot counts (only boundary slots are filtered departure by
// departure).
func (m *MFP) Mine(ds *traj.Dataset, from, to roadnet.NodeID, t routing.SimTime) (roadnet.Route, float64, error) {
	if err := validateOD(ds.Graph, from, to); err != nil {
		return roadnet.Route{}, 0, err
	}
	freq := ds.FootmarksNearHour(t.HourOfDay(), m.WindowHours)
	if freq == nil {
		return roadnet.Route{}, 0, ErrNotEnoughData
	}

	bottleneck := m.maxBottleneck(ds.Graph, freq, from, to)
	if bottleneck < m.MinBottleneck {
		return roadnet.Route{}, 0, ErrNotEnoughData
	}

	// Among paths achieving the optimal bottleneck, prefer the shortest:
	// Dijkstra by length restricted to edges with freq >= bottleneck.
	route, err := m.shortestAtLeast(ds, freq, bottleneck, from, to)
	if err != nil {
		return roadnet.Route{}, 0, err
	}
	return route, float64(bottleneck), nil
}

// maxBottleneck computes the maximum over paths from→to of the minimum edge
// frequency (a widest-path search over the road graph's edges with a
// count). Returns 0 when unreachable. The maximum is one number, so the
// order the graph lists a node's edges in cannot change it.
func (m *MFP) maxBottleneck(g *roadnet.Graph, freq []int32, from, to roadnet.NodeID) int {
	best := make([]int, g.NumNodes()) // 0: unreached (every width is ≥ 1)
	best[from] = math.MaxInt
	done := make([]bool, g.NumNodes())
	pq := &widestQueue{{node: from, width: math.MaxInt}}
	for pq.Len() > 0 {
		it := heap.Pop(pq).(widestItem)
		if done[it.node] {
			continue
		}
		done[it.node] = true
		if it.node == to {
			return it.width
		}
		for _, e := range g.Out(it.node) {
			f := int(freq[e])
			if f == 0 {
				continue
			}
			v := g.Edge(e).To
			if done[v] {
				continue
			}
			if w := min(it.width, f); w > best[v] {
				best[v] = w
				heap.Push(pq, widestItem{node: v, width: w})
			}
		}
	}
	return 0
}

// shortestAtLeast finds the shortest (by meters) path using only node pairs
// with frequency >= minFreq (and at least one trip). Every parallel edge of
// an allowed pair is allowed, since the pair's count sits on its canonical
// edge.
func (m *MFP) shortestAtLeast(ds *traj.Dataset, freq []int32, minFreq int, from, to roadnet.NodeID) (roadnet.Route, error) {
	cost := routing.CostFn(func(e *roadnet.Edge, _ routing.SimTime) float64 {
		if f := int(freq[ds.CanonicalEdge(e.ID)]); f == 0 || f < minFreq {
			return math.Inf(1)
		}
		return e.Length
	})
	// routing.ShortestPath treats +Inf edges as unusable because any path
	// through them has infinite cost and the destination check rejects it.
	r, total, err := routing.ShortestPath(ds.Graph, from, to, cost, 0)
	if err != nil {
		return roadnet.Route{}, ErrNotEnoughData
	}
	if math.IsInf(total, 1) {
		return roadnet.Route{}, ErrNotEnoughData
	}
	return r, nil
}

// widestItem is a priority-queue entry for the widest-path search.
type widestItem struct {
	node  roadnet.NodeID
	width int
}

// widestQueue is a max-heap on width with node tie-break.
type widestQueue []widestItem

func (q widestQueue) Len() int { return len(q) }
func (q widestQueue) Less(i, j int) bool {
	if q[i].width != q[j].width {
		return q[i].width > q[j].width
	}
	return q[i].node < q[j].node
}
func (q widestQueue) Swap(i, j int) { q[i], q[j] = q[j], q[i] }
func (q *widestQueue) Push(x any)   { *q = append(*q, x.(widestItem)) }
func (q *widestQueue) Pop() any {
	old := *q
	n := len(old)
	it := old[n-1]
	*q = old[:n-1]
	return it
}
