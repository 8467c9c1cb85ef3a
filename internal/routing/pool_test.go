package routing

import (
	"math/rand"
	"sync"
	"testing"

	"crowdplanner/internal/roadnet"
)

// TestConcurrentPoolSharing is the -race hammer for workspace reuse: many
// goroutines run ShortestPath/AStar/KShortest concurrently, all drawing
// workspaces from the shared pool, and every result is cross-checked against
// a fresh-workspace baseline computed serially up front (and, for a sample,
// against the old reference engine, which allocates all of its state per
// call and so cannot be perturbed by pooling bugs). A workspace leaking
// state across epochs or a race on the pool shows up as a diverged route.
func TestConcurrentPoolSharing(t *testing.T) {
	cfg := roadnet.DefaultGenConfig()
	cfg.Cols, cfg.Rows = 10, 10
	g := roadnet.Generate(cfg)

	type want struct {
		src, dst roadnet.NodeID
		sp       roadnet.Route
		spCost   float64
		as       roadnet.Route
		ks       []roadnet.Route
		ksCosts  []float64
		err      bool
	}
	rng := rand.New(rand.NewSource(9))
	var cases []want
	for len(cases) < 24 {
		src := roadnet.NodeID(rng.Intn(g.NumNodes()))
		dst := roadnet.NodeID(rng.Intn(g.NumNodes()))
		w := want{src: src, dst: dst}
		var err error
		w.sp, w.spCost, err = ShortestPath(g, src, dst, TravelTimeCost, At(0, 8, 0))
		if err != nil {
			w.err = true
			cases = append(cases, w)
			continue
		}
		if w.as, _, err = AStar(g, src, dst, TravelTimeCost, At(0, 8, 0)); err != nil {
			t.Fatalf("baseline astar %d->%d: %v", src, dst, err)
		}
		if w.ks, w.ksCosts, err = KShortest(g, src, dst, 4, TravelTimeCost, At(0, 8, 0)); err != nil {
			t.Fatalf("baseline kshortest %d->%d: %v", src, dst, err)
		}
		// Cross-check the baseline itself against the fresh-state
		// reference engine: the pooled baseline must not be self-consistent
		// garbage.
		refR, refC, refErr := refShortestPath(g, src, dst, TravelTimeCost, At(0, 8, 0))
		if refErr != nil || !refR.Equal(w.sp) || refC != w.spCost {
			t.Fatalf("baseline %d->%d diverges from reference: %v/%v vs %v/%v (%v)",
				src, dst, w.sp, w.spCost, refR, refC, refErr)
		}
		cases = append(cases, w)
	}

	const goroutines = 16
	const reps = 30
	var wg sync.WaitGroup
	for gi := 0; gi < goroutines; gi++ {
		wg.Add(1)
		go func(gi int) {
			defer wg.Done()
			for rep := 0; rep < reps; rep++ {
				w := cases[(gi+rep)%len(cases)]
				sp, spCost, err := ShortestPath(g, w.src, w.dst, TravelTimeCost, At(0, 8, 0))
				if w.err {
					if err == nil {
						t.Errorf("%d->%d: expected error", w.src, w.dst)
					}
					continue
				}
				if err != nil || !sp.Equal(w.sp) || spCost != w.spCost {
					t.Errorf("%d->%d: concurrent ShortestPath diverged (%v)", w.src, w.dst, err)
					continue
				}
				as, _, err := AStar(g, w.src, w.dst, TravelTimeCost, At(0, 8, 0))
				if err != nil || !as.Equal(w.as) {
					t.Errorf("%d->%d: concurrent AStar diverged (%v)", w.src, w.dst, err)
					continue
				}
				ks, ksCosts, err := KShortest(g, w.src, w.dst, 4, TravelTimeCost, At(0, 8, 0))
				if err != nil || len(ks) != len(w.ks) {
					t.Errorf("%d->%d: concurrent KShortest count diverged (%v)", w.src, w.dst, err)
					continue
				}
				for j := range ks {
					if !ks[j].Equal(w.ks[j]) || ksCosts[j] != w.ksCosts[j] {
						t.Errorf("%d->%d: concurrent KShortest route %d diverged", w.src, w.dst, j)
					}
				}
			}
		}(gi)
	}
	wg.Wait()
}

// TestWarmSearchAllocations pins the allocation contract of the rewrite: a
// warmed-up single-pair search allocates only its result route (the nodes
// slice), nothing for search state — the workspace comes from the pool and
// the heap storage is recycled in place.
func TestWarmSearchAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates inside sync.Pool")
	}
	cfg := roadnet.DefaultGenConfig()
	cfg.Cols, cfg.Rows = 10, 10
	g := roadnet.Generate(cfg)
	src, dst := roadnet.NodeID(3), roadnet.NodeID(g.NumNodes()-4)
	if _, _, err := ShortestPath(g, src, dst, DistanceCost, 0); err != nil {
		t.Fatal(err)
	}
	// Warm up the pool (and pin a workspace so GC between testing runs
	// can't empty it mid-measurement).
	ws := acquireSpace(g)
	releaseSpace(ws)
	allocs := testing.AllocsPerRun(50, func() {
		_, _, _ = ShortestPath(g, src, dst, DistanceCost, 0)
	})
	// One allocation for the result nodes slice; everything else reused.
	if allocs > 1 {
		t.Errorf("warm ShortestPath allocs/op = %v, want <= 1", allocs)
	}
	allocs = testing.AllocsPerRun(50, func() {
		_, _, _ = AStar(g, src, dst, DistanceCost, 0)
	})
	if allocs > 1 {
		t.Errorf("warm AStar allocs/op = %v, want <= 1", allocs)
	}
}

// TestKShortestWarmAllocations pins the Yen allocation rework: the old
// engine allocated ~156 times per k=4 call (string route keys for dedup, a
// fresh route slice per spur, container/heap boxing); the pooled slab of
// candidate sequences brings a warm call down to the k result routes plus a
// few fixed slices. The bound 3k+4 leaves room for map/slice growth noise
// while still catching any per-spur allocation regression by an order of
// magnitude.
func TestKShortestWarmAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates inside sync.Pool")
	}
	cfg := roadnet.DefaultGenConfig()
	cfg.Cols, cfg.Rows = 10, 10
	g := roadnet.Generate(cfg)
	src, dst := roadnet.NodeID(3), roadnet.NodeID(g.NumNodes()-4)
	for _, k := range []int{2, 4, 8} {
		if _, _, err := KShortest(g, src, dst, k, DistanceCost, 0); err != nil {
			t.Fatal(err)
		}
		allocs := testing.AllocsPerRun(50, func() {
			_, _, _ = KShortest(g, src, dst, k, DistanceCost, 0)
		})
		if limit := float64(3*k + 4); allocs > limit {
			t.Errorf("warm KShortest k=%d allocs/op = %v, want <= %v", k, allocs, limit)
		}
	}
}

// TestPoolCountersMove sanity-checks the health counters: searches, heap
// pushes and pool hits must all advance across a batch of warm searches.
func TestPoolCountersMove(t *testing.T) {
	g := diamond()
	before := CounterSnapshot()
	for i := 0; i < 10; i++ {
		if _, _, err := ShortestPath(g, 0, 4, DistanceCost, 0); err != nil {
			t.Fatal(err)
		}
	}
	if _, _, err := KShortest(g, 0, 4, 3, DistanceCost, 0); err != nil {
		t.Fatal(err)
	}
	after := CounterSnapshot()
	if after.Searches <= before.Searches {
		t.Error("Searches did not advance")
	}
	if after.HeapPushes <= before.HeapPushes {
		t.Error("HeapPushes did not advance")
	}
	if after.KShortestCalls != before.KShortestCalls+1 {
		t.Errorf("KShortestCalls advanced by %d, want 1", after.KShortestCalls-before.KShortestCalls)
	}
	if after.PoolHits <= before.PoolHits {
		t.Error("PoolHits did not advance across warm searches")
	}
}
