// Command cpbench regenerates the tables and figures of the reconstructed
// evaluation (DESIGN.md §4, EXPERIMENTS.md), and measures the routing engine
// in isolation across city scales. Serving speed is perfbench's job
// (python3 perfbench/run.py).
//
// Usage:
//
//	cpbench -exp all            # every experiment at full scale
//	cpbench -exp E1,E4 -scale 0.5
//	cpbench -list
//	cpbench -routing 5000 -routing-grid 16,64 # routing-engine mode: Dijkstra/A*/ALT/k-shortest
//	cpbench -exp E1 -json BENCH_e1.json       # machine-readable results
//
// With -json, one result per experiment (or per routing sweep row) is
// written as a JSON array of {name, runs, ns_per_op, allocs_per_op, extra},
// so successive runs accumulate a comparable perf trajectory (BENCH_*.json).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"

	"crowdplanner/internal/experiments"
	"crowdplanner/internal/roadnet"
	"crowdplanner/internal/routing"
)

// BenchResult is one machine-readable benchmark measurement, mirroring the
// fields of testing.B output that matter for trend tracking.
type BenchResult struct {
	Name        string             `json:"name"`
	Runs        int                `json:"runs"`
	NsPerOp     float64            `json:"ns_per_op"`
	AllocsPerOp float64            `json:"allocs_per_op"`
	Extra       map[string]float64 `json:"extra,omitempty"`
}

func main() {
	var (
		exp         = flag.String("exp", "all", "comma-separated experiment IDs (E1..E10, A1, A2) or 'all'")
		scale       = flag.Float64("scale", 1.0, "workload scale factor (1 = EXPERIMENTS.md scale)")
		list        = flag.Bool("list", false, "list available experiments and exit")
		routingN    = flag.Int("routing", 0, "routing mode: run N random-OD queries each through Dijkstra, A* and k-shortest")
		routingGrid = flag.String("routing-grid", "16", "routing mode: comma-separated city grid sizes (cols = rows), e.g. 16,64,256")
		routingK    = flag.Int("routing-k", 4, "routing mode: k for the k-shortest sweep")
		routingPrep = flag.Bool("routing-prep", true, "routing mode: also benchmark the ALT landmark preprocessing tier")
		jsonOut     = flag.String("json", "", "write machine-readable results (name, ns/op, allocs) to this file")
	)
	flag.Parse()

	if *list {
		for _, s := range experiments.Registry() {
			fmt.Printf("%-4s %s\n", s.ID, s.Title)
		}
		return
	}
	var results []BenchResult
	if *routingN > 0 {
		grids, err := parseGrids(*routingGrid)
		if err != nil {
			fatal(err)
		}
		for _, grid := range grids {
			results = append(results, runRouting(*routingN, grid, *routingK, *routingPrep)...)
		}
	} else {
		var ids []string
		if *exp != "all" && *exp != "" {
			for _, id := range strings.Split(*exp, ",") {
				if id = strings.TrimSpace(id); id != "" {
					ids = append(ids, id)
				}
			}
		}
		selected, err := experiments.Select(ids)
		if err != nil {
			fatal(err)
		}
		for _, s := range selected {
			fmt.Printf("# %s — %s\n", s.ID, s.Title)
			// Only the experiment runs inside the timed region; table
			// formatting and terminal writes would otherwise pollute the
			// ns_per_op trend data.
			var tables []*experiments.Table
			res := measure("exp/"+s.ID, 1, func() {
				tables = s.Run(*scale)
			})
			for _, tbl := range tables {
				tbl.Fprint(os.Stdout)
			}
			res.Extra = map[string]float64{"scale": *scale}
			results = append(results, res)
		}
	}
	if *jsonOut != "" {
		if err := writeResults(*jsonOut, results); err != nil {
			fatal(err)
		}
		fmt.Printf("wrote %d result(s) to %s\n", len(results), *jsonOut)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "cpbench:", err)
	os.Exit(1)
}

// measure times ops executions of f and attributes allocations to it.
func measure(name string, ops int, f func()) BenchResult {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	f()
	elapsed := time.Since(start)
	runtime.ReadMemStats(&after)
	if ops < 1 {
		ops = 1
	}
	return BenchResult{
		Name:        name,
		Runs:        ops,
		NsPerOp:     float64(elapsed.Nanoseconds()) / float64(ops),
		AllocsPerOp: float64(after.Mallocs-before.Mallocs) / float64(ops),
	}
}

func writeResults(path string, results []BenchResult) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(results); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// parseGrids parses the -routing-grid comma list ("16,64,256") into grid
// sizes. Every non-empty entry must be a whole number of at least 2.
func parseGrids(s string) ([]int, error) {
	var grids []int
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		grid, err := strconv.Atoi(part)
		if err != nil || grid < 2 {
			return nil, fmt.Errorf("bad -routing-grid entry %q: want a whole number >= 2", part)
		}
		grids = append(grids, grid)
	}
	if len(grids) == 0 {
		return nil, fmt.Errorf("-routing-grid lists no sizes")
	}
	return grids, nil
}

// runRouting measures the routing engine in isolation at one city scale:
// `queries` random OD pairs on a grid×grid generated city, swept through
// plain Dijkstra, goal-directed A* and the ALT landmark tier (all under the
// time-dependent travel-time cost, at the morning peak and off-peak) and
// k-shortest (under distance cost, the heavier Yen workload). Result names
// carry an @grid suffix, so a comma sweep (-routing-grid 16,64,256) emits a
// scale trajectory into BENCH_routing.json.
//
// Query counts scale down with the node count beyond grid 64 (the workload
// per query grows with the graph), and the Yen sweep caps at grid 256 —
// k-shortest on a million-node city is out of its workload class.
func runRouting(queries, grid, k int, prep bool) []BenchResult {
	gcfg := roadnet.DefaultGenConfig()
	gcfg.Cols, gcfg.Rows = grid, grid
	genStart := time.Now()
	g := roadnet.Generate(gcfg)
	qs := queries
	if grid > 64 {
		// Keep the sweep's wall-clock bounded: per-query work grows with
		// the graph, so the query count shrinks with it.
		qs = max(8, queries*64*64/(grid*grid))
	}
	fmt.Printf("routing mode: %dx%d city (%d nodes, %d edges, generated in %v), %d queries per algorithm\n",
		grid, grid, g.NumNodes(), g.NumEdges(), time.Since(genStart).Round(time.Millisecond), qs)

	// Deterministic OD sweep. Generated cities are connected by
	// construction; the explicit reachability precheck is kept on small
	// grids (mirroring the historical workload exactly) and skipped on
	// large ones, where it would cost a full Dijkstra per OD.
	rng := rand.New(rand.NewSource(17))
	type od struct{ src, dst roadnet.NodeID }
	ods := make([]od, 0, qs)
	for len(ods) < qs {
		src := roadnet.NodeID(rng.Intn(g.NumNodes()))
		dst := roadnet.NodeID(rng.Intn(g.NumNodes()))
		if src == dst {
			continue
		}
		if grid <= 32 {
			if _, _, err := routing.ShortestPath(g, src, dst, routing.DistanceCost, 0); err != nil {
				continue
			}
		}
		ods = append(ods, od{src, dst})
	}
	peak := routing.At(0, 8, 0) // morning rush: congestion 2-3x free flow
	// Post-rush evening: free flow for the WHOLE route window. A night
	// departure (say 3:00) looks idle but puts million-node routes (~4 h)
	// into the morning rush right at arrival, where heuristic looseness at
	// the far end costs the most; 21:00 keeps even the longest sweep clear
	// of both rush windows.
	offpeak := routing.At(0, 21, 0)

	var prepTime *routing.Preprocessed
	var prepStats routing.PrepStats
	if prep {
		prepTime = routing.Preprocess(g, routing.TravelTimeCost, routing.DefaultPrepConfig())
		prepStats = prepTime.Stats()
		fmt.Printf("  prep       %d landmarks in %.0f ms, %.1f MB tables\n",
			prepStats.Landmarks, prepStats.BuildMs, float64(prepStats.TableBytes)/(1<<20))
	}
	// Counters are process-lifetime; report only this run's sweeps, not the
	// prechecks or preprocessing above.
	base := routing.CounterSnapshot()

	var results []BenchResult
	suffix := fmt.Sprintf("@%d", grid)
	// run appends one measurement and returns it by value; the Extra map is
	// shared with the appended entry, so later annotations on the returned
	// copy land in the emitted result.
	run := func(name string, ops int, f func(i int)) BenchResult {
		res := measure("routing/"+name+suffix, ops, func() {
			for i := 0; i < ops; i++ {
				f(i)
			}
		})
		rate := 1e9 / res.NsPerOp
		res.Extra = map[string]float64{
			"queries_per_sec": rate,
			"grid":            float64(grid),
			"nodes":           float64(g.NumNodes()),
			"edges":           float64(g.NumEdges()),
		}
		fmt.Printf("  %-14s %12.0f ns/op %10.0f queries/s %8.1f allocs/op\n",
			name, res.NsPerOp, rate, res.AllocsPerOp)
		results = append(results, res)
		return res
	}
	// Single-pair sweeps, at both departure times. Off-peak is where the ALT
	// bound meets the true cost (free flow == the landmark metric), so it
	// measures the tier's intrinsic pruning power; the morning peak shows the
	// honest time-dependent number, where congestion above the admissible
	// free-flow bound loosens any exact heuristic.
	addALT := func(alt, ast, dij BenchResult) {
		alt.Extra["prep_build_ms"] = prepStats.BuildMs
		alt.Extra["prep_table_mb"] = float64(prepStats.TableBytes) / (1 << 20)
		alt.Extra["landmarks"] = float64(prepStats.Landmarks)
		alt.Extra["speedup_vs_astar"] = ast.NsPerOp / alt.NsPerOp
		alt.Extra["speedup_vs_dijkstra"] = dij.NsPerOp / alt.NsPerOp
		fmt.Printf("  alt speedup  %.1fx vs astar, %.1fx vs dijkstra\n",
			ast.NsPerOp/alt.NsPerOp, dij.NsPerOp/alt.NsPerOp)
	}
	sweep := func(tag string, depart routing.SimTime) {
		dij := run("dijkstra"+tag, qs, func(i int) {
			o := ods[i%len(ods)]
			_, _, _ = routing.ShortestPath(g, o.src, o.dst, routing.TravelTimeCost, depart)
		})
		ast := run("astar"+tag, qs, func(i int) {
			o := ods[i%len(ods)]
			_, _, _ = routing.AStar(g, o.src, o.dst, routing.TravelTimeCost, depart)
		})
		if prepTime != nil {
			alt := run("alt"+tag, qs, func(i int) {
				o := ods[i%len(ods)]
				_, _, _ = prepTime.AStar(o.src, o.dst, depart)
			})
			addALT(alt, ast, dij)
		}
	}
	sweep("", peak)
	sweep("-offpeak", offpeak)

	if grid <= 256 {
		kq := qs
		if grid > 64 {
			kq = max(4, qs/4)
		}
		ks := run("kshortest", kq, func(i int) {
			o := ods[i%len(ods)]
			_, _, _ = routing.KShortest(g, o.src, o.dst, k, routing.DistanceCost, 0)
		})
		ks.Extra["k"] = float64(k)
	}

	rs := routing.CounterSnapshot()
	fmt.Printf("  engine     %d searches (%d A*, %d ALT), %d heap pushes, pool %d hits / %d misses\n",
		rs.Searches-base.Searches, rs.AStarSearches-base.AStarSearches,
		rs.ALTSearches-base.ALTSearches,
		rs.HeapPushes-base.HeapPushes, rs.PoolHits-base.PoolHits, rs.PoolMisses-base.PoolMisses)
	return results
}
