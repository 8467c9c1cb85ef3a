package roadnet

import (
	"fmt"
	"slices"
	"strconv"

	"crowdplanner/internal/geo"
)

// Route is a continuous travelling path, represented — exactly as in the
// paper's Definition 1 — by the sequence of consecutive road intersections
// from source to destination.
type Route struct {
	Nodes []NodeID
}

// NewRoute returns a route over the given nodes. The caller retains
// ownership of the slice.
func NewRoute(nodes ...NodeID) Route { return Route{Nodes: nodes} }

// Empty reports whether the route has fewer than 2 nodes (no edges).
func (r Route) Empty() bool { return len(r.Nodes) < 2 }

// Source returns the first node; it panics on a node-less route.
func (r Route) Source() NodeID { return r.Nodes[0] }

// Dest returns the last node; it panics on a node-less route.
func (r Route) Dest() NodeID { return r.Nodes[len(r.Nodes)-1] }

// String implements fmt.Stringer: the node IDs in decimal, joined by "→",
// in brackets.
func (r Route) String() string {
	b := make([]byte, 0, 2+8*len(r.Nodes))
	b = append(b, '[')
	for i, n := range r.Nodes {
		if i > 0 {
			b = append(b, "→"...)
		}
		b = strconv.AppendInt(b, int64(n), 10)
	}
	return string(append(b, ']'))
}

// Equal reports whether two routes visit exactly the same node sequence.
func (r Route) Equal(o Route) bool {
	if len(r.Nodes) != len(o.Nodes) {
		return false
	}
	for i := range r.Nodes {
		if r.Nodes[i] != o.Nodes[i] {
			return false
		}
	}
	return true
}

// Clone returns a deep copy of the route.
func (r Route) Clone() Route {
	n := make([]NodeID, len(r.Nodes))
	copy(n, r.Nodes)
	return Route{Nodes: n}
}

// Valid reports whether every consecutive node pair is connected by an edge
// in g and the route has at least one edge.
func (r Route) Valid(g *Graph) bool {
	if r.Empty() {
		return false
	}
	for i := 1; i < len(r.Nodes); i++ {
		if _, ok := g.FindEdge(r.Nodes[i-1], r.Nodes[i]); !ok {
			return false
		}
	}
	return true
}

// Edges returns the edge IDs traversed by the route in order. Missing edges
// are reported as an error.
func (r Route) Edges(g *Graph) ([]EdgeID, error) {
	if r.Empty() {
		return nil, fmt.Errorf("roadnet: route %v has no edges", r)
	}
	out := make([]EdgeID, 0, len(r.Nodes)-1)
	for i := 1; i < len(r.Nodes); i++ {
		eid, ok := g.FindEdge(r.Nodes[i-1], r.Nodes[i])
		if !ok {
			return nil, fmt.Errorf("roadnet: no edge %d→%d in route", r.Nodes[i-1], r.Nodes[i])
		}
		out = append(out, eid)
	}
	return out, nil
}

// Length returns the total length of the route in meters. Node pairs without
// a connecting edge contribute straight-line distance; this makes Length
// total and safe for slightly out-of-sync data.
func (r Route) Length(g *Graph) float64 {
	var total float64
	for i := 1; i < len(r.Nodes); i++ {
		if eid, ok := g.FindEdge(r.Nodes[i-1], r.Nodes[i]); ok {
			total += g.Edge(eid).Length
		} else {
			total += geo.Dist(g.Node(r.Nodes[i-1]).Pt, g.Node(r.Nodes[i]).Pt)
		}
	}
	return total
}

// Lights returns the number of traffic lights encountered along the route.
func (r Route) Lights(g *Graph) int {
	var total int
	for i := 1; i < len(r.Nodes); i++ {
		if eid, ok := g.FindEdge(r.Nodes[i-1], r.Nodes[i]); ok {
			total += g.Edge(eid).Lights
		}
	}
	return total
}

// Polyline returns the geometry of the route.
func (r Route) Polyline(g *Graph) geo.Polyline {
	pl := make(geo.Polyline, len(r.Nodes))
	for i, n := range r.Nodes {
		pl[i] = g.Node(n).Pt
	}
	return pl
}

// EdgeKeys is a route's set of undirected edges: each traversed node pair
// (a, b) with a <= b encoded as int64(a)<<32 | uint32(b), sorted ascending,
// every pair once.
type EdgeKeys []int64

// EdgeKeys returns the route's undirected edge set.
func (r Route) EdgeKeys() EdgeKeys {
	if len(r.Nodes) < 2 {
		return nil
	}
	keys := make(EdgeKeys, 0, len(r.Nodes)-1)
	for i := 1; i < len(r.Nodes); i++ {
		a, b := r.Nodes[i-1], r.Nodes[i]
		if a > b {
			a, b = b, a
		}
		keys = append(keys, int64(a)<<32|int64(uint32(b)))
	}
	slices.Sort(keys)
	return slices.Compact(keys)
}

// Similarity returns the Jaccard similarity of two edge sets, in [0,1],
// counting the intersection by one merge over the sorted keys. Two empty
// sets are fully similar.
func (a EdgeKeys) Similarity(b EdgeKeys) float64 {
	if len(a) == 0 && len(b) == 0 {
		return 1
	}
	inter := 0
	for i, j := 0, 0; i < len(a) && j < len(b); {
		switch {
		case a[i] < b[j]:
			i++
		case a[i] > b[j]:
			j++
		default:
			inter++
			i++
			j++
		}
	}
	return float64(inter) / float64(len(a)+len(b)-inter)
}

// Similarity returns the Jaccard similarity of the undirected edge sets of
// the two routes, in [0,1]. Two empty routes are fully similar.
func (r Route) Similarity(o Route) float64 {
	return r.EdgeKeys().Similarity(o.EdgeKeys())
}
