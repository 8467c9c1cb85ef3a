// Package experiments regenerates every table and figure of the
// reconstructed evaluation (see DESIGN.md §4 for the experiment index and
// EXPERIMENTS.md for recorded results). Each experiment builds its workload
// deterministically, runs the relevant system components, and returns a
// printable Table whose rows correspond to the series the paper would plot.
package experiments

import (
	"fmt"
	"io"
	"strings"
	"sync"

	"crowdplanner/internal/core"
	"crowdplanner/internal/roadnet"
	"crowdplanner/internal/routing"
	"crowdplanner/internal/traj"
)

// Table is one experiment result: a titled grid of cells.
type Table struct {
	ID     string
	Title  string
	Header []string
	Rows   [][]string
	Notes  []string
}

// AddRow appends a row of stringified cells.
func (t *Table) AddRow(cells ...string) {
	t.Rows = append(t.Rows, cells)
}

// Fprint renders the table with aligned columns.
func (t *Table) Fprint(w io.Writer) {
	fmt.Fprintf(w, "== %s: %s ==\n", t.ID, t.Title)
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	printRow := func(cells []string) {
		parts := make([]string, len(cells))
		for i, c := range cells {
			if i < len(widths) {
				parts[i] = fmt.Sprintf("%-*s", widths[i], c)
			} else {
				parts[i] = c
			}
		}
		fmt.Fprintln(w, "  "+strings.Join(parts, "  "))
	}
	printRow(t.Header)
	sep := make([]string, len(t.Header))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	printRow(sep)
	for _, row := range t.Rows {
		printRow(row)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(w, "  note: %s\n", n)
	}
	fmt.Fprintln(w)
}

// f2, f3 and d format cells.
func f2(v float64) string { return fmt.Sprintf("%.2f", v) }
func f3(v float64) string { return fmt.Sprintf("%.3f", v) }
func d(v int) string      { return fmt.Sprintf("%d", v) }

// Worlds are shared across experiments and built once.
var (
	worldOnce sync.Once
	world     *core.Scenario
)

// World returns the shared mid-size scenario used by most experiments: a
// 16x16 city, 240 drivers, ~1300 trips, 160 landmarks, 240 workers.
func World() *core.Scenario {
	worldOnce.Do(func() {
		cfg := core.DefaultScenarioConfig()
		cfg.City.Cols, cfg.City.Rows = 16, 16
		cfg.City.Seed = 101
		cfg.Population.NumDrivers = 240
		cfg.Population.Seed = 102
		cfg.Dataset.NumODs = 45
		cfg.Dataset.TripsPerOD = 28
		cfg.Dataset.Seed = 103
		cfg.Landmarks.NumPoints = 150
		cfg.Landmarks.NumLines = 10
		cfg.Landmarks.NumRegions = 6
		cfg.Landmarks.Seed = 104
		cfg.Checkins.NumUsers = 300
		cfg.Checkins.Seed = 105
		cfg.Workers.NumWorkers = 240
		cfg.Workers.Seed = 106
		cfg.System.PMF.Iters = 60
		world = core.BuildScenario(cfg)
	})
	return world
}

// denseMinTrips is the minimum corpus support for an OD pair to count as
// "dense" in the experiments.
const denseMinTrips = 10

// denseODs picks the n best-supported OD pairs of the corpus (dense) with
// their modal departure time. Only ODs with at least denseMinTrips trips
// qualify; if fewer exist the best-supported remainder is used.
func denseODs(scn *core.Scenario, n int) []core.Request {
	type odKey struct{ from, to roadnet.NodeID }
	counts := map[odKey]int{}
	depart := map[odKey]routing.SimTime{}
	for _, tr := range scn.Data.Trips {
		if tr.Route.Empty() {
			continue
		}
		k := odKey{tr.Route.Source(), tr.Route.Dest()}
		counts[k]++
		depart[k] = tr.Depart
	}
	type scored struct {
		k odKey
		c int
	}
	var all []scored
	for k, c := range counts {
		all = append(all, scored{k, c})
	}
	// Deterministic order: by count desc, then node IDs.
	for i := 1; i < len(all); i++ {
		for j := i; j > 0; j-- {
			a, b := all[j], all[j-1]
			if a.c > b.c || (a.c == b.c && (a.k.from < b.k.from || (a.k.from == b.k.from && a.k.to < b.k.to))) {
				all[j], all[j-1] = all[j-1], all[j]
			} else {
				break
			}
		}
	}
	var out []core.Request
	for i := 0; i < len(all) && len(out) < n; i++ {
		if all[i].c < denseMinTrips && len(out) > 0 {
			break
		}
		k := all[i].k
		out = append(out, core.Request{From: k.from, To: k.to, Depart: depart[k]})
	}
	return out
}

// odSupport counts the corpus trips whose endpoints lie within LDR's 300 m
// match radius of from and to.
func odSupport(scn *core.Scenario, from, to roadnet.NodeID) int {
	n := 0
	for _, c := range scn.Data.TripCounts(from, to, 300) {
		n += c.Trips
	}
	return n
}

// sparseODs draws OD pairs that have little or no trajectory support.
func sparseODs(scn *core.Scenario, n int, seed int64) []core.Request {
	rng := newRng(seed)
	ods, _ := traj.RandomODs(scn.Graph, n*3, 1500, rng) // shortfall fine: only n are kept
	var out []core.Request
	for _, od := range ods {
		if len(out) >= n {
			break
		}
		if odSupport(scn, od.From, od.To) > 2 {
			continue // too well supported to count as sparse
		}
		out = append(out, core.Request{
			From: od.From, To: od.To, Depart: routing.At(rng.Intn(5), 8+rng.Intn(10), 0),
		})
	}
	return out
}
