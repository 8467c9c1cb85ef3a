package routing

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"crowdplanner/internal/geo"
	"crowdplanner/internal/roadnet"
)

// routingInput is one routing problem decoded from fuzz bytes.
type routingInput struct {
	g        *roadnet.Graph
	cost     CostFunc
	at       SimTime
	src, dst roadnet.NodeID
	k        int
}

// byteReader hands out bytes and yields zeros once they run out, so every
// byte string decodes to some input.
type byteReader []byte

func (r *byteReader) next() int {
	if len(*r) == 0 {
		return 0
	}
	b := (*r)[0]
	*r = (*r)[1:]
	return int(b)
}

// decodeRoutingInput turns bytes into a small routing problem that
// exercises the graphs generated cities never contain: 2–10 nodes on a 5×5
// lattice of 400 m cells (points may coincide), and up to 24 directed edges
// of any class, with a default or explicit speed, 0–2 lights, and a
// straight-line or explicit length — parallel edges, zero-length edges and
// self-loops included. Then a cost model, a departure time, an OD pair and
// k in 1..4.
//
// Layout: node count; one lattice cell per node; edge count; per edge
// from, to and an attribute byte (bits 0–1 class, bit 2 explicit speed,
// bits 3–4 lights, bit 5 explicit length), followed by a speed byte and a
// big-endian 16-bit length (0 means straight-line) when flagged; then cost
// (odd: travel time), departure in 6-minute steps, src, dst and k.
func decodeRoutingInput(data []byte) routingInput {
	r := byteReader(data)
	n := 2 + r.next()%9
	g := roadnet.NewGraph(n, 24)
	for range n {
		cell := r.next() % 25
		g.AddNode(geo.Point{X: float64(cell%5) * 400, Y: float64(cell/5) * 400})
	}
	for m := r.next() % 25; m > 0; m-- {
		from, to := roadnet.NodeID(r.next()%n), roadnet.NodeID(r.next()%n)
		attr := r.next()
		var speed, length float64
		if attr&4 != 0 {
			speed = float64(5 + r.next()%116)
		}
		if attr&32 != 0 {
			length = float64(r.next()<<8 | r.next())
		}
		g.AddEdge(from, to, roadnet.RoadClass(attr&3), speed, (attr>>3&3)%3, length)
	}
	in := routingInput{g: g, cost: DistanceCost}
	if r.next()&1 != 0 {
		in.cost = TravelTimeCost
	}
	in.at = SimTime(6 * r.next())
	in.src, in.dst = roadnet.NodeID(r.next()%n), roadnet.NodeID(r.next()%n)
	in.k = 1 + r.next()%4
	return in
}

// maxSequences bounds the brute-force enumeration of loopless routes.
const maxSequences = 20000

// checkRouting holds every tier of the engine to its contract on one input:
// the plain searches to the reference engine bit for bit, A* and ALT to
// Dijkstra's cost, the ALT tables to a reference one-to-all Dijkstra bit for
// bit, and both Yen tiers to a brute-force enumeration of loopless routes.
func checkRouting(t *testing.T, in routingInput) {
	t.Helper()
	g, cost, at, src, dst := in.g, in.cost, in.at, in.src, in.dst

	dijR, dijC, dijErr := ShortestPath(g, src, dst, cost, at)
	refR, refC, refErr := refShortestPath(g, src, dst, cost, at)
	sameAnswer(t, "ShortestPath vs reference", dijR, dijC, dijErr, refR, refC, refErr)
	astR, astC, astErr := AStar(g, src, dst, cost, at)
	refR, refC, refErr = refAStar(g, src, dst, cost, at, cost.MinCostPerMeter(g))
	sameAnswer(t, "AStar vs reference", astR, astC, astErr, refR, refC, refErr)
	sameCost(t, "AStar vs Dijkstra", astC, astErr, dijC, dijErr)

	n := g.NumNodes()
	p := Preprocess(g, cost, PrepConfig{Landmarks: 4, Active: 2})
	w := edgeBounds(g, cost)
	for li, l := range p.lands {
		sameBits(t, "fwd row of landmark", l, p.fwd[li*n:(li+1)*n], refOneToAll(g, w, l, false))
		sameBits(t, "rev row of landmark", l, p.rev[li*n:(li+1)*n], refOneToAll(g, w, l, true))
	}
	dist := make([]float64, n)
	if err := DistancesTo(g, w, dst, dist); err != nil {
		t.Fatal(err)
	}
	sameBits(t, "DistancesTo", dst, dist, refOneToAll(g, w, dst, true))

	altR, altC, altErr := p.AStar(src, dst, at)
	sameCost(t, "Preprocessed.AStar vs Dijkstra", altC, altErr, dijC, dijErr)
	if altErr == nil {
		checkRoute(t, "Preprocessed.AStar", g, src, dst, altR)
	}

	hop := cheapestHops(g, cost)
	seqCosts, complete := looplessCosts(hop, src, dst)
	for _, tier := range []struct {
		name     string
		yen      func() ([]roadnet.Route, []float64, error)
		first    roadnet.Route
		firstC   float64
		firstErr error
	}{
		{"KShortest", func() ([]roadnet.Route, []float64, error) { return KShortest(g, src, dst, in.k, cost, at) },
			astR, astC, astErr},
		{"Preprocessed.KShortest", func() ([]roadnet.Route, []float64, error) { return p.KShortest(src, dst, in.k, at) },
			altR, altC, altErr},
	} {
		routes, costs, err := tier.yen()
		if err != tier.firstErr {
			t.Fatalf("%s: error %v, but its AStar's is %v", tier.name, err, tier.firstErr)
		}
		if err != nil {
			continue
		}
		sameAnswer(t, tier.name+" first route vs its AStar", routes[0], costs[0], nil, tier.first, tier.firstC, nil)
		for i, r := range routes {
			checkRoute(t, tier.name, g, src, dst, r)
			for _, prev := range routes[:i] {
				if prev.Equal(r) {
					t.Fatalf("%s: route %v returned twice", tier.name, r)
				}
			}
		}
		if !complete {
			continue
		}
		if want := min(in.k, len(seqCosts)); len(routes) != want {
			t.Fatalf("%s k=%d: %d routes %v, but %d loopless routes exist", tier.name, in.k, len(routes), routes, len(seqCosts))
		}
		if cost != DistanceCost {
			continue // time-dependent Yen costs are approximate
		}
		for i, r := range routes {
			if c := routeCost(hop, r); !near(costs[i], seqCosts[i]) || !near(costs[i], c) {
				t.Fatalf("%s: route %d %v reported at %v and costs %v; the cheapest loopless routes cost %v",
					tier.name, i, r, costs[i], c, seqCosts[:len(routes)])
			}
		}
	}
}

// sameAnswer demands two search answers agree bit for bit: error, node
// sequence and cost.
func sameAnswer(t *testing.T, what string, r1 roadnet.Route, c1 float64, err1 error, r2 roadnet.Route, c2 float64, err2 error) {
	t.Helper()
	if err1 != err2 || !r1.Equal(r2) || math.Float64bits(c1) != math.Float64bits(c2) {
		t.Fatalf("%s: %v cost %v err %v, want %v cost %v err %v", what, r1, c1, err1, r2, c2, err2)
	}
}

// sameCost demands two searches agree on reachability and, within 1e-9
// relative, on cost.
func sameCost(t *testing.T, what string, c1 float64, err1 error, c2 float64, err2 error) {
	t.Helper()
	if err1 != err2 || (err1 == nil && !near(c1, c2)) {
		t.Fatalf("%s: cost %v err %v, want cost %v err %v", what, c1, err1, c2, err2)
	}
}

// sameBits demands a table row equal its reference entry for entry, bit for
// bit.
func sameBits(t *testing.T, what string, node roadnet.NodeID, got, want []float64) {
	t.Helper()
	for v := range want {
		if math.Float64bits(got[v]) != math.Float64bits(want[v]) {
			t.Fatalf("%s %d: entry %d is %v, reference %v", what, node, v, got[v], want[v])
		}
	}
}

// near reports whether a and b agree within 1e-9 relative.
func near(a, b float64) bool {
	return a == b || math.Abs(a-b) <= 1e-9*math.Max(math.Abs(a), math.Abs(b))
}

// checkRoute demands a loopless, connected route from src to dst.
func checkRoute(t *testing.T, what string, g *roadnet.Graph, src, dst roadnet.NodeID, r roadnet.Route) {
	t.Helper()
	nodes := r.Nodes
	if len(nodes) == 0 || nodes[0] != src || nodes[len(nodes)-1] != dst || (len(nodes) > 1 && !r.Valid(g)) {
		t.Fatalf("%s: route %v is not a connected %d→%d route", what, r, src, dst)
	}
	for i, v := range nodes {
		if slices.Contains(nodes[:i], v) {
			t.Fatalf("%s: route %v revisits %d", what, r, v)
		}
	}
}

// cheapestHops returns, per ordered node pair, the cost at time 0 of the
// cheapest edge joining them, +Inf where none does (every decoded edge has a
// finite cost). For a time-independent cost that is the cost of the hop.
func cheapestHops(g *roadnet.Graph, cost CostFunc) [][]float64 {
	n := g.NumNodes()
	hop := make([][]float64, n)
	for u := range hop {
		hop[u] = make([]float64, n)
		for v := range hop[u] {
			hop[u][v] = math.Inf(1)
		}
	}
	for id := range g.NumEdges() {
		e := g.Edge(roadnet.EdgeID(id))
		hop[e.From][e.To] = min(hop[e.From][e.To], cost.Cost(e, 0))
	}
	return hop
}

// routeCost prices a route hop by hop on the cheapest edges.
func routeCost(hop [][]float64, r roadnet.Route) float64 {
	var c float64
	for i := 1; i < len(r.Nodes); i++ {
		c += hop[r.Nodes[i-1]][r.Nodes[i]]
	}
	return c
}

// looplessCosts enumerates every loopless src→dst node sequence by DFS over
// the cheapestHops table and returns their costs in increasing order.
// complete is false when there are more than maxSequences sequences.
func looplessCosts(hop [][]float64, src, dst roadnet.NodeID) (costs []float64, complete bool) {
	onPath := make([]bool, len(hop))
	var walk func(u roadnet.NodeID, c float64) bool
	walk = func(u roadnet.NodeID, c float64) bool {
		if u == dst {
			costs = append(costs, c)
			return len(costs) <= maxSequences
		}
		onPath[u] = true
		defer func() { onPath[u] = false }()
		for v, hc := range hop[u] {
			if !onPath[v] && !math.IsInf(hc, 1) && !walk(roadnet.NodeID(v), c+hc) {
				return false
			}
		}
		return true
	}
	complete = walk(src, 0)
	slices.Sort(costs)
	return costs, complete
}

// refOneToAll is the reference for the ALT sweeps: Dijkstra by linear scan,
// distances from src under the edge weights w, or to src when reverse is
// set, +Inf where unreachable.
func refOneToAll(g *roadnet.Graph, w []float64, src roadnet.NodeID, reverse bool) []float64 {
	n := g.NumNodes()
	dist := make([]float64, n)
	for v := range dist {
		dist[v] = math.Inf(1)
	}
	dist[src] = 0
	done := make([]bool, n)
	for {
		u := -1
		for v, d := range dist {
			if !done[v] && !math.IsInf(d, 1) && (u == -1 || d < dist[u]) {
				u = v
			}
		}
		if u == -1 {
			return dist
		}
		done[u] = true
		for id := range g.NumEdges() {
			e := g.Edge(roadnet.EdgeID(id))
			from, to := e.From, e.To
			if reverse {
				from, to = to, from
			}
			if int(from) == u {
				dist[to] = min(dist[to], dist[u]+w[id])
			}
		}
	}
}

// TestRoutingOnRandomGraphs runs the fuzz target's checks over random
// inputs, so plain `go test` covers more than the seed corpus.
func TestRoutingOnRandomGraphs(t *testing.T) {
	rng := rand.New(rand.NewSource(20))
	buf := make([]byte, 128)
	for range 3000 {
		rng.Read(buf)
		checkRouting(t, decodeRoutingInput(buf))
	}
}

// FuzzRouting's seed corpus (testdata/fuzz/FuzzRouting) holds the
// parallel-edge graphs Yen once failed on (a spur re-finding an accepted
// route over a parallel edge; a root hop priced on a dearer parallel edge),
// exact ties between two routes (one where A* and Dijkstra return different
// tied routes), and the degenerate src == dst and unreachable-dst inputs.
func FuzzRouting(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		checkRouting(t, decodeRoutingInput(data))
	})
}
