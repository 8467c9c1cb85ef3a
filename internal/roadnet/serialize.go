package roadnet

import (
	"encoding/json"
	"io"
)

// jsonGraph is the wire form of a Graph.
type jsonGraph struct {
	Nodes []jsonNode `json:"nodes"`
	Edges []jsonEdge `json:"edges"`
}

type jsonNode struct {
	X float64 `json:"x"`
	Y float64 `json:"y"`
}

type jsonEdge struct {
	From   NodeID    `json:"from"`
	To     NodeID    `json:"to"`
	Length float64   `json:"len"`
	Class  RoadClass `json:"class"`
	Speed  float64   `json:"speed"`
	Lights int       `json:"lights"`
}

// Write serializes the graph as JSON. The format is stable and versioned
// implicitly by field names.
func (g *Graph) Write(w io.Writer) error {
	jg := jsonGraph{
		Nodes: make([]jsonNode, len(g.nodes)),
		Edges: make([]jsonEdge, len(g.edges)),
	}
	for i, n := range g.nodes {
		jg.Nodes[i] = jsonNode{X: n.Pt.X, Y: n.Pt.Y}
	}
	for i, e := range g.edges {
		jg.Edges[i] = jsonEdge{
			From: e.From, To: e.To, Length: e.Length,
			Class: e.Class, Speed: e.SpeedKmh, Lights: e.Lights,
		}
	}
	enc := json.NewEncoder(w)
	return enc.Encode(jg)
}
