package routing

import (
	"testing"

	"crowdplanner/internal/roadnet"
)

// Benchmarks of the rewritten engine against the preserved old engine
// (reference_test.go), on the same generated city and OD sweep. The `Ref`
// variants are the old container/heap + per-search-allocation +
// sort-per-round implementations; the plain variants are the pooled
// epoch-stamped engine. `go test -bench 'Dijkstra|AStar|KShortest' -benchmem
// ./internal/routing/` shows the speedup and the allocation reduction.

func benchGraph(b *testing.B) *roadnet.Graph {
	b.Helper()
	cfg := roadnet.DefaultGenConfig()
	cfg.Cols, cfg.Rows = 16, 16
	return roadnet.Generate(cfg)
}

func benchODs(g *roadnet.Graph, i int) (roadnet.NodeID, roadnet.NodeID) {
	n := roadnet.NodeID(g.NumNodes())
	src := roadnet.NodeID(i) % n
	return src, (src + n/2) % n
}

func BenchmarkDijkstra(b *testing.B) {
	g := benchGraph(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		src, dst := benchODs(g, i)
		_, _, _ = ShortestPath(g, src, dst, TravelTimeCost, At(0, 8, 0))
	}
}

func BenchmarkDijkstraRef(b *testing.B) {
	g := benchGraph(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		src, dst := benchODs(g, i)
		_, _, _ = refShortestPath(g, src, dst, TravelTimeCost, At(0, 8, 0))
	}
}

func BenchmarkAStar(b *testing.B) {
	g := benchGraph(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		src, dst := benchODs(g, i)
		_, _, _ = AStar(g, src, dst, TravelTimeCost, At(0, 8, 0))
	}
}

func BenchmarkAStarRef(b *testing.B) {
	g := benchGraph(b)
	mcpm := TravelTimeCost.MinCostPerMeter(g)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		src, dst := benchODs(g, i)
		_, _, _ = refAStar(g, src, dst, TravelTimeCost, At(0, 8, 0), mcpm)
	}
}

func BenchmarkKShortest(b *testing.B) {
	g := benchGraph(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		src, dst := benchODs(g, i)
		_, _, _ = KShortest(g, src, dst, 4, DistanceCost, 0)
	}
}

func BenchmarkKShortestRef(b *testing.B) {
	g := benchGraph(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		src, dst := benchODs(g, i)
		_, _, _ = refKShortest(g, src, dst, 4, DistanceCost, 0)
	}
}

// The ALT benchmark below exercises the preprocessing tier on the same city
// and OD sweep. On a 16x16 toy grid the landmark bound barely beats the
// straight-line bound — the scale story lives in cpbench's -routing-grid
// sweep — but it pins the query-side overhead and gives CI a 1x smoke over
// the prep code paths.

func benchPrep(b *testing.B, g *roadnet.Graph) *Preprocessed {
	b.Helper()
	return Preprocess(g, TravelTimeCost, PrepConfig{Landmarks: 16, Active: 8})
}

func BenchmarkALTAStar(b *testing.B) {
	g := benchGraph(b)
	p := benchPrep(b, g)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		src, dst := benchODs(g, i)
		_, _, _ = p.AStar(src, dst, At(0, 8, 0))
	}
}
