package roadnet

import (
	"bytes"
	"encoding/json"
	"math"
	"slices"
	"sync"
	"testing"

	"crowdplanner/internal/geo"
)

// line builds a simple path graph 0-1-2-...-(n-1) spaced 100m apart.
func line(n int) *Graph {
	g := NewGraph(n, 2*(n-1))
	for i := 0; i < n; i++ {
		g.AddNode(geo.Point{X: float64(i) * 100, Y: 0})
	}
	for i := 0; i+1 < n; i++ {
		g.AddRoad(NodeID(i), NodeID(i+1), Local, 0, 0)
	}
	return g
}

func TestAddNodeEdge(t *testing.T) {
	g := NewGraph(0, 0)
	a := g.AddNode(geo.Point{X: 0, Y: 0})
	b := g.AddNode(geo.Point{X: 300, Y: 400})
	if a != 0 || b != 1 {
		t.Fatalf("ids = %d,%d", a, b)
	}
	eid := g.AddEdge(a, b, Arterial, 0, 1, 0)
	e := g.Edge(eid)
	if e.Length != 500 {
		t.Errorf("auto length = %v, want 500", e.Length)
	}
	if e.SpeedKmh != Arterial.DefaultSpeedKmh() {
		t.Errorf("auto speed = %v", e.SpeedKmh)
	}
	if e.Lights != 1 {
		t.Errorf("lights = %d", e.Lights)
	}
	if got := len(g.Out(a)); got != 1 {
		t.Errorf("out(a) = %d", got)
	}
	if got := len(g.In(b)); got != 1 {
		t.Errorf("in(b) = %d", got)
	}
	if g.NumNodes() != 2 || g.NumEdges() != 1 {
		t.Errorf("counts = %d,%d", g.NumNodes(), g.NumEdges())
	}
}

func TestAddRoadBidirectional(t *testing.T) {
	g := line(3)
	if _, ok := g.FindEdge(0, 1); !ok {
		t.Error("edge 0→1 missing")
	}
	if _, ok := g.FindEdge(1, 0); !ok {
		t.Error("edge 1→0 missing")
	}
	if _, ok := g.FindEdge(0, 2); ok {
		t.Error("edge 0→2 should not exist")
	}
}

func TestBaseTravelMinutes(t *testing.T) {
	e := Edge{Length: 1000, SpeedKmh: 60}
	if got := e.BaseTravelMinutes(); math.Abs(got-1) > 1e-9 {
		t.Errorf("1km @60 = %v min, want 1", got)
	}
	bad := Edge{Length: 1000, SpeedKmh: 0}
	if !math.IsInf(bad.BaseTravelMinutes(), 1) {
		t.Error("zero speed should be +Inf")
	}
}

func TestRoadClassString(t *testing.T) {
	cases := map[RoadClass]string{
		Local: "local", Collector: "collector", Arterial: "arterial",
		Highway: "highway", RoadClass(9): "RoadClass(9)",
	}
	for c, want := range cases {
		if got := c.String(); got != want {
			t.Errorf("%d.String() = %q, want %q", c, got, want)
		}
	}
}

func TestNearestNode(t *testing.T) {
	g := line(10)
	id, ok := g.NearestNode(geo.Point{X: 420, Y: 10})
	if !ok || id != 4 {
		t.Errorf("NearestNode = %d, %v", id, ok)
	}
	id, ok = g.NearestNode(geo.Point{X: -1000, Y: 0})
	if !ok || id != 0 {
		t.Errorf("NearestNode far = %d, %v", id, ok)
	}
	empty := NewGraph(0, 0)
	if _, ok := empty.NearestNode(geo.Point{}); ok {
		t.Error("empty graph should report !ok")
	}
}

func TestNodesWithin(t *testing.T) {
	g := line(10)
	got := g.NodesWithin(geo.Point{X: 200, Y: 0}, 150)
	want := map[NodeID]bool{1: true, 2: true, 3: true}
	if len(got) != len(want) {
		t.Fatalf("NodesWithin = %v", got)
	}
	for _, id := range got {
		if !want[id] {
			t.Fatalf("unexpected node %d in %v", id, got)
		}
	}
}

// TestNodeIndexConcurrentFirstUse: on a fresh graph the first NearestNode
// and NodesWithin calls build the node index, so concurrent readers must
// build it exactly once (run with -race).
func TestNodeIndexConcurrentFirstUse(t *testing.T) {
	cfg := DefaultGenConfig()
	cfg.Cols, cfg.Rows = 10, 10
	g := Generate(cfg)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			id := NodeID(w * 7)
			p := g.Node(id).Pt
			if w%2 == 0 {
				if got, ok := g.NearestNode(p); !ok || g.Node(got).Pt != p {
					t.Errorf("NearestNode(%v) = %d, %v", p, got, ok)
				}
				return
			}
			if !slices.Contains(g.NodesWithin(p, 1), id) {
				t.Errorf("NodesWithin(%v, 1) misses node %d", p, id)
			}
		}()
	}
	wg.Wait()
}

func TestRouteBasics(t *testing.T) {
	g := line(5)
	r := NewRoute(0, 1, 2, 3)
	if r.Empty() {
		t.Error("route should not be empty")
	}
	if r.Source() != 0 || r.Dest() != 3 {
		t.Errorf("src/dst = %d/%d", r.Source(), r.Dest())
	}
	if !r.Valid(g) {
		t.Error("route should be valid")
	}
	if got := r.Length(g); math.Abs(got-300) > 1e-9 {
		t.Errorf("Length = %v", got)
	}
	bad := NewRoute(0, 2)
	if bad.Valid(g) {
		t.Error("0→2 should be invalid")
	}
	if (Route{}).Valid(g) {
		t.Error("empty route should be invalid")
	}
	edges, err := r.Edges(g)
	if err != nil || len(edges) != 3 {
		t.Errorf("Edges = %v, %v", edges, err)
	}
	if _, err := bad.Edges(g); err == nil {
		t.Error("Edges on broken route should error")
	}
	if _, err := (Route{}).Edges(g); err == nil {
		t.Error("Edges on empty route should error")
	}
}

func TestRouteEqualClone(t *testing.T) {
	a := NewRoute(1, 2, 3)
	b := a.Clone()
	if !a.Equal(b) {
		t.Error("clone should be equal")
	}
	b.Nodes[0] = 9
	if a.Equal(b) {
		t.Error("mutated clone should differ")
	}
	if a.Nodes[0] != 1 {
		t.Error("clone should not share storage")
	}
	if a.Equal(NewRoute(1, 2)) {
		t.Error("length mismatch should differ")
	}
}

func TestRouteSimilarity(t *testing.T) {
	a := NewRoute(0, 1, 2, 3)
	if got := a.Similarity(a); got != 1 {
		t.Errorf("self similarity = %v", got)
	}
	b := NewRoute(3, 2, 1, 0) // reversed: same undirected edges
	if got := a.Similarity(b); got != 1 {
		t.Errorf("reversed similarity = %v", got)
	}
	c := NewRoute(0, 1, 5, 3) // shares edge 0-1 only; a has 3 edges, c has 3
	got := a.Similarity(c)
	want := 1.0 / 5.0
	if math.Abs(got-want) > 1e-9 {
		t.Errorf("partial similarity = %v, want %v", got, want)
	}
	d := NewRoute(7, 8)
	if got := a.Similarity(d); got != 0 {
		t.Errorf("disjoint similarity = %v", got)
	}
	if got := (Route{}).Similarity(Route{}); got != 1 {
		t.Errorf("empty similarity = %v", got)
	}
}

func TestRouteLights(t *testing.T) {
	g := NewGraph(3, 4)
	g.AddNode(geo.Point{})
	g.AddNode(geo.Point{X: 100})
	g.AddNode(geo.Point{X: 200})
	g.AddEdge(0, 1, Local, 0, 1, 0)
	g.AddEdge(1, 2, Local, 0, 1, 0)
	r := NewRoute(0, 1, 2)
	if got := r.Lights(g); got != 2 {
		t.Errorf("Lights = %d", got)
	}
}

func TestRoutePolylineString(t *testing.T) {
	g := line(3)
	r := NewRoute(0, 1, 2)
	pl := r.Polyline(g)
	if len(pl) != 3 || pl[2] != (geo.Point{X: 200, Y: 0}) {
		t.Errorf("Polyline = %v", pl)
	}
	if s := r.String(); s != "[0→1→2]" {
		t.Errorf("String = %q", s)
	}
}

func TestGenerateConnectivityAndDeterminism(t *testing.T) {
	cfg := DefaultGenConfig()
	cfg.Cols, cfg.Rows = 10, 10
	g1 := Generate(cfg)
	g2 := Generate(cfg)
	if g1.NumNodes() != g2.NumNodes() || g1.NumEdges() != g2.NumEdges() {
		t.Fatal("generation is not deterministic")
	}
	if g1.NumNodes() < 100 {
		t.Fatalf("nodes = %d, want >= 100", g1.NumNodes())
	}
	// BFS from node 0 must reach every node (generator keeps connectivity).
	visited := make([]bool, g1.NumNodes())
	queue := []NodeID{0}
	visited[0] = true
	count := 1
	for len(queue) > 0 {
		n := queue[0]
		queue = queue[1:]
		for _, eid := range g1.Out(n) {
			to := g1.Edge(eid).To
			if !visited[to] {
				visited[to] = true
				count++
				queue = append(queue, to)
			}
		}
	}
	if count != g1.NumNodes() {
		t.Errorf("connected component = %d of %d nodes", count, g1.NumNodes())
	}
}

func TestGenerateClasses(t *testing.T) {
	g := Generate(DefaultGenConfig())
	have := map[RoadClass]int{}
	for i := 0; i < g.NumEdges(); i++ {
		have[g.Edge(EdgeID(i)).Class]++
	}
	for _, c := range []RoadClass{Local, Arterial, Highway, Collector} {
		if have[c] == 0 {
			t.Errorf("no %v edges generated", c)
		}
	}
}

func TestGeneratePanicsOnTinyGrid(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Generate should panic on 1x1 grid")
		}
	}()
	Generate(GenConfig{Cols: 1, Rows: 1, Spacing: 100})
}

func TestSerializeRoundTrip(t *testing.T) {
	g := Generate(GenConfig{
		Cols: 5, Rows: 5, Spacing: 200, Jitter: 10,
		ArterialEach: 2, HighwayRing: true, RemoveProb: 0.1,
		LightProb: 0.4, ArtLightProb: 0.6, Seed: 3,
	})
	var buf bytes.Buffer
	if err := g.Write(&buf); err != nil {
		t.Fatal(err)
	}
	var jg jsonGraph
	if err := json.Unmarshal(buf.Bytes(), &jg); err != nil {
		t.Fatal(err)
	}
	if len(jg.Nodes) != g.NumNodes() || len(jg.Edges) != g.NumEdges() {
		t.Fatalf("written size mismatch: %d/%d vs %d/%d",
			len(jg.Nodes), len(jg.Edges), g.NumNodes(), g.NumEdges())
	}
	i := g.NumEdges() / 2
	e, je := g.Edge(EdgeID(i)), jg.Edges[i]
	if je.From != e.From || je.To != e.To || je.Class != e.Class || je.Speed != e.SpeedKmh ||
		je.Lights != e.Lights || math.Abs(je.Length-e.Length) > 1e-9 {
		t.Fatalf("edge %d mismatch: %+v vs %+v", i, je, e)
	}
}

func TestBBoxPanicsOnEmptyGraph(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("BBox on empty graph should panic")
		}
	}()
	NewGraph(0, 0).BBox()
}
