// Package roadnet models the road network substrate on which CrowdPlanner
// operates: a graph of intersections (nodes) and road segments (edges) with
// per-segment attributes (length, road class, speed limit, traffic lights).
//
// The paper evaluates on the real road network of a city; this package
// additionally provides a deterministic synthetic city generator (see
// Generate) with the same qualitative structure: a jittered grid of local
// streets, arterial corridors, a highway ring, and random gaps. See DESIGN.md
// for the substitution rationale.
package roadnet

import (
	"fmt"
	"math"
	"sync"

	"crowdplanner/internal/geo"
)

// NodeID identifies an intersection in a Graph. IDs are dense: valid IDs are
// 0..NumNodes-1.
type NodeID int32

// EdgeID identifies a directed edge in a Graph. IDs are dense.
type EdgeID int32

// RoadClass categorizes a road segment. Higher classes are faster and more
// comfortable to drive.
type RoadClass uint8

// Road classes from slowest/smallest to fastest/largest.
const (
	Local RoadClass = iota
	Collector
	Arterial
	Highway
)

// String implements fmt.Stringer.
func (c RoadClass) String() string {
	switch c {
	case Local:
		return "local"
	case Collector:
		return "collector"
	case Arterial:
		return "arterial"
	case Highway:
		return "highway"
	default:
		return fmt.Sprintf("RoadClass(%d)", uint8(c))
	}
}

// DefaultSpeedKmh returns the default speed limit for a road class, in km/h.
func (c RoadClass) DefaultSpeedKmh() float64 {
	switch c {
	case Local:
		return 40
	case Collector:
		return 50
	case Arterial:
		return 60
	case Highway:
		return 100
	default:
		return 40
	}
}

// Node is a road intersection.
type Node struct {
	ID NodeID
	Pt geo.Point
}

// Edge is a directed road segment between two intersections.
type Edge struct {
	ID       EdgeID
	From     NodeID
	To       NodeID
	Length   float64 // meters
	Class    RoadClass
	SpeedKmh float64 // speed limit
	Lights   int     // traffic lights encountered along this segment (0 or 1 typically)
}

// BaseTravelMinutes returns the free-flow traversal time of the edge in
// minutes, ignoring congestion.
func (e *Edge) BaseTravelMinutes() float64 {
	if e.SpeedKmh <= 0 {
		return math.Inf(1)
	}
	return e.Length / 1000 / e.SpeedKmh * 60
}

// Graph is a directed road network. Construct with NewGraph and AddNode /
// AddEdge, or via Generate. Graphs are immutable after construction by
// convention: no method mutates a graph once routing begins.
type Graph struct {
	nodes []Node
	edges []Edge
	out   [][]EdgeID // out[n] lists edges leaving node n
	in    [][]EdgeID // in[n] lists edges entering node n

	index     *geo.Grid // nearest-node index, built on first use by ensureIndex
	indexOnce sync.Once

	// Heuristic bounds tracked at construction, so goal-directed search
	// stays admissible for any graph however it was built (generator,
	// serialization, embedder code). See MaxSpeedKmh and MinLengthRatio.
	maxSpeedKmh float64
	minLenRatio float64
}

// NewGraph returns an empty graph with capacity hints.
func NewGraph(nodeHint, edgeHint int) *Graph {
	return &Graph{
		nodes:       make([]Node, 0, nodeHint),
		edges:       make([]Edge, 0, edgeHint),
		out:         make([][]EdgeID, 0, nodeHint),
		in:          make([][]EdgeID, 0, nodeHint),
		minLenRatio: 1,
	}
}

// AddNode appends a node at p and returns its ID.
func (g *Graph) AddNode(p geo.Point) NodeID {
	id := NodeID(len(g.nodes))
	g.nodes = append(g.nodes, Node{ID: id, Pt: p})
	g.out = append(g.out, nil)
	g.in = append(g.in, nil)
	g.index = nil
	return id
}

// AddEdge appends a directed edge from -> to with the given attributes and
// returns its ID. Length 0 means "compute from node coordinates".
func (g *Graph) AddEdge(from, to NodeID, class RoadClass, speedKmh float64, lights int, length float64) EdgeID {
	straight := geo.Dist(g.nodes[from].Pt, g.nodes[to].Pt)
	if length <= 0 {
		length = straight
	}
	if speedKmh <= 0 {
		speedKmh = class.DefaultSpeedKmh()
	}
	if speedKmh > g.maxSpeedKmh {
		g.maxSpeedKmh = speedKmh
	}
	if straight > 0 {
		if r := length / straight; r < g.minLenRatio {
			g.minLenRatio = r
		}
	}
	id := EdgeID(len(g.edges))
	g.edges = append(g.edges, Edge{
		ID: id, From: from, To: to,
		Length: length, Class: class, SpeedKmh: speedKmh, Lights: lights,
	})
	g.out[from] = append(g.out[from], id)
	g.in[to] = append(g.in[to], id)
	return id
}

// AddRoad adds a bidirectional road (two directed edges) and returns both
// edge IDs.
func (g *Graph) AddRoad(a, b NodeID, class RoadClass, speedKmh float64, lights int) (ab, ba EdgeID) {
	ab = g.AddEdge(a, b, class, speedKmh, lights, 0)
	ba = g.AddEdge(b, a, class, speedKmh, lights, 0)
	return ab, ba
}

// MaxSpeedKmh returns the highest speed limit among the graph's edges (0
// for a graph with no edges). Goal-directed search derives travel-time
// heuristic bounds from it, so the heuristic stays admissible even when
// edges exceed the class-default speeds.
func (g *Graph) MaxSpeedKmh() float64 { return g.maxSpeedKmh }

// MinLengthRatio returns the minimum, over all edges, of edge length divided
// by the straight-line distance between its endpoints, capped at 1 (1 for a
// graph with no edges; 0 for a zero-value Graph not built via NewGraph,
// which disables distance heuristics rather than risking inadmissibility).
// Edges are normally at least as long as straight-line (curvy roads), but
// AddEdge accepts arbitrary lengths; scaling heuristics by this ratio keeps
// them admissible when an edge is shorter than the crow flies.
func (g *Graph) MinLengthRatio() float64 { return g.minLenRatio }

// NumNodes returns the number of nodes.
func (g *Graph) NumNodes() int { return len(g.nodes) }

// NumEdges returns the number of directed edges.
func (g *Graph) NumEdges() int { return len(g.edges) }

// Node returns the node with the given ID.
func (g *Graph) Node(id NodeID) *Node { return &g.nodes[id] }

// Edge returns the edge with the given ID.
func (g *Graph) Edge(id EdgeID) *Edge { return &g.edges[id] }

// Out returns the IDs of edges leaving n. The returned slice must not be
// modified.
func (g *Graph) Out(n NodeID) []EdgeID { return g.out[n] }

// In returns the IDs of edges entering n. The returned slice must not be
// modified.
func (g *Graph) In(n NodeID) []EdgeID { return g.in[n] }

// FindEdge returns the ID of an edge from -> to, if one exists.
func (g *Graph) FindEdge(from, to NodeID) (EdgeID, bool) {
	for _, eid := range g.out[from] {
		if g.edges[eid].To == to {
			return eid, true
		}
	}
	return 0, false
}

// BBox returns the bounding box of all node coordinates. It panics on an
// empty graph.
func (g *Graph) BBox() geo.BBox {
	if len(g.nodes) == 0 {
		panic("roadnet: BBox of empty graph")
	}
	b := geo.NewBBox(g.nodes[0].Pt)
	for _, n := range g.nodes[1:] {
		b = b.Extend(n.Pt)
	}
	return b
}

// ensureIndex builds the nearest-node spatial index on first use. Its
// callers are read methods that may run concurrently, so the build runs
// exactly once. Callers reject empty graphs first.
func (g *Graph) ensureIndex() {
	g.indexOnce.Do(func() {
		b := g.BBox().Buffer(1)
		cell := math.Max(b.Width(), b.Height()) / 64
		if cell <= 0 {
			cell = 1
		}
		idx := geo.NewGrid(b, cell)
		for _, n := range g.nodes {
			idx.Insert(int32(n.ID), n.Pt)
		}
		g.index = idx
	})
}

// NearestNode returns the node closest to p. ok is false for an empty graph.
func (g *Graph) NearestNode(p geo.Point) (NodeID, bool) {
	if len(g.nodes) == 0 {
		return 0, false
	}
	g.ensureIndex()
	id, _, ok := g.index.Nearest(p)
	return NodeID(id), ok
}

// NodesWithin returns all nodes within radius r of p.
func (g *Graph) NodesWithin(p geo.Point, r float64) []NodeID {
	if len(g.nodes) == 0 {
		return nil
	}
	g.ensureIndex()
	raw := g.index.Within(p, r)
	out := make([]NodeID, len(raw))
	for i, id := range raw {
		out[i] = NodeID(id)
	}
	return out
}
