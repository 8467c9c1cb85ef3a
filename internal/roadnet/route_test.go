package roadnet

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"
)

// fmtString is Route.String as rendered through fmt, the reference for the
// strconv rendering.
func fmtString(r Route) string {
	var sb strings.Builder
	sb.WriteByte('[')
	for i, n := range r.Nodes {
		if i > 0 {
			sb.WriteString("→")
		}
		fmt.Fprintf(&sb, "%d", n)
	}
	sb.WriteByte(']')
	return sb.String()
}

// mapSimilarity is Route.Similarity over map-based edge sets, the
// reference for the sorted-key merge.
func mapSimilarity(r, o Route) float64 {
	set := func(r Route) map[int64]struct{} {
		s := make(map[int64]struct{}, len(r.Nodes))
		for i := 1; i < len(r.Nodes); i++ {
			a, b := r.Nodes[i-1], r.Nodes[i]
			if a > b {
				a, b = b, a
			}
			s[int64(a)<<32|int64(uint32(b))] = struct{}{}
		}
		return s
	}
	a, b := set(r), set(o)
	if len(a) == 0 && len(b) == 0 {
		return 1
	}
	inter := 0
	for k := range a {
		if _, ok := b[k]; ok {
			inter++
		}
	}
	union := len(a) + len(b) - inter
	if union == 0 {
		return 1
	}
	return float64(inter) / float64(union)
}

// randomRoute draws a route of 0 to 30 nodes over IDs in [lo, lo+span):
// small spans repeat edges, and a negative lo gives negative IDs.
func randomRoute(rng *rand.Rand, lo, span int) Route {
	nodes := make([]NodeID, rng.Intn(31))
	for i := range nodes {
		nodes[i] = NodeID(lo + rng.Intn(span))
	}
	return Route{Nodes: nodes}
}

func TestRouteStringMatchesFmt(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	routes := []Route{{}, {Nodes: []NodeID{}}, NewRoute(0), NewRoute(-1), NewRoute(math.MaxInt32, math.MinInt32, 0)}
	for range 5000 {
		switch rng.Intn(3) {
		case 0:
			routes = append(routes, randomRoute(rng, 0, 500))
		case 1:
			routes = append(routes, randomRoute(rng, -50, 100))
		default:
			routes = append(routes, randomRoute(rng, math.MinInt32, math.MaxInt32))
		}
	}
	for _, r := range routes {
		if got, want := r.String(), fmtString(r); got != want {
			t.Fatalf("%v: String %q, fmt %q", r.Nodes, got, want)
		}
	}
}

// TestEdgeKeysSimilarityMatchesMap pins the merge count to the map-based
// Jaccard on random pairs: repeated edges (IDs from a small range),
// reversed and perturbed copies sharing undirected edges, negative IDs, and
// empty and one-node routes.
func TestEdgeKeysSimilarityMatchesMap(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	fixed := []Route{{}, NewRoute(4), NewRoute(4, 4), NewRoute(1, 2, 1, 2), NewRoute(2, 1), NewRoute(-3, 5, -3)}
	check := func(a, b Route) {
		t.Helper()
		ka, kb := a.EdgeKeys(), b.EdgeKeys()
		for i := 1; i < len(ka); i++ {
			if ka[i-1] >= ka[i] {
				t.Fatalf("%v: keys %v not strictly increasing", a.Nodes, ka)
			}
		}
		want := mapSimilarity(a, b)
		for _, got := range []float64{ka.Similarity(kb), a.Similarity(b), b.Similarity(a)} {
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("%v vs %v: similarity %v, map reference %v", a.Nodes, b.Nodes, got, want)
			}
		}
	}
	for _, a := range fixed {
		for _, b := range fixed {
			check(a, b)
		}
	}
	for range 20000 {
		lo, span := 0, 2+rng.Intn(40)
		if rng.Intn(4) == 0 {
			lo = -span / 2
		}
		a := randomRoute(rng, lo, span)
		var b Route
		switch rng.Intn(4) {
		case 0:
			b = randomRoute(rng, lo, span)
		case 1: // reversed
			b = Route{Nodes: make([]NodeID, len(a.Nodes))}
			for i, n := range a.Nodes {
				b.Nodes[len(a.Nodes)-1-i] = n
			}
		case 2: // a few nodes replaced
			b = a.Clone()
			for k := rng.Intn(3); k >= 0 && len(b.Nodes) > 0; k-- {
				b.Nodes[rng.Intn(len(b.Nodes))] = NodeID(lo + rng.Intn(span))
			}
		default:
			b = fixed[rng.Intn(len(fixed))]
		}
		check(a, b)
	}
}

// benchRoute is a 25-node route with the default world's node IDs.
func benchRoute() Route {
	rng := rand.New(rand.NewSource(1))
	nodes := make([]NodeID, 25)
	for i := range nodes {
		nodes[i] = NodeID(rng.Intn(420))
	}
	return Route{Nodes: nodes}
}

func BenchmarkRouteString(b *testing.B) {
	r := benchRoute()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = r.String()
	}
}

func BenchmarkRouteSimilarity(b *testing.B) {
	r := benchRoute()
	o := r.Clone()
	o.Nodes[12] = 7
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = r.Similarity(o)
	}
}
