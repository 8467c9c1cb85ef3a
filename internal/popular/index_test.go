package popular

import (
	"errors"
	"math/rand"
	"testing"

	"crowdplanner/internal/roadnet"
	"crowdplanner/internal/routing"
	"crowdplanner/internal/traj"
)

// The tests in this file pin the miners' ingestion contract: every miner
// must return bit-identical results — route, support, and error — on a
// dataset built with all its trips and on one that received half of them
// through live ingestion. (Each index query the miners read is pinned
// against a linear scan in package traj.) The benchmarks at the bottom
// measure the miners at 100k trips, and on the default world's corpus as it
// grows from 1.5k to 600k trips.

// corpusGraph is the mid-size generated city shared by corpus builders.
func corpusGraph(tb testing.TB) *roadnet.Graph {
	tb.Helper()
	cfg := roadnet.DefaultGenConfig()
	cfg.Cols, cfg.Rows = 12, 12
	cfg.Seed = 41
	return roadnet.Generate(cfg)
}

// routeTemplates computes distinct real paths between spread-out OD pairs —
// cheap to replicate into an arbitrarily large synthetic corpus without
// running the GPS/map-matching pipeline per trip.
func routeTemplates(tb testing.TB, g *roadnet.Graph, n int, seed int64) []roadnet.Route {
	tb.Helper()
	rng := rand.New(rand.NewSource(seed))
	var out []roadnet.Route
	for len(out) < n {
		from := roadnet.NodeID(rng.Intn(g.NumNodes()))
		to := roadnet.NodeID(rng.Intn(g.NumNodes()))
		if from == to {
			continue
		}
		cost := routing.DistanceCost
		if rng.Intn(2) == 0 {
			cost = routing.TravelTimeCost
		}
		r, _, err := routing.ShortestPath(g, from, to, cost, routing.At(0, 8, 0))
		if err != nil || r.Empty() {
			continue
		}
		out = append(out, r)
	}
	return out
}

// syntheticTrips replicates the templates into nTrips trajectories with
// varied drivers and departure times (including fractional hours, so the
// MFP window boundaries get exercised).
func syntheticTrips(templates []roadnet.Route, nTrips int, seed int64) []traj.Trajectory {
	rng := rand.New(rand.NewSource(seed))
	trips := make([]traj.Trajectory, nTrips)
	for i := range trips {
		trips[i] = traj.Trajectory{
			Driver: traj.DriverID(rng.Intn(60)),
			Depart: routing.SimTime(rng.Float64() * 7 * 24 * 60),
			Route:  templates[i%len(templates)],
		}
	}
	return trips
}

// twinDatasets builds two datasets holding identical trips: one with every
// trip present at construction, and one where half the trips are present at
// construction and half arrive through IngestTrips — so the equivalence
// also covers the incremental (copy-on-write) update path.
func twinDatasets(tb testing.TB, g *roadnet.Graph, trips []traj.Trajectory) (built, grown *traj.Dataset) {
	tb.Helper()
	built = traj.NewDataset(g, nil, append([]traj.Trajectory(nil), trips...))
	grown = traj.NewDataset(g, nil, append([]traj.Trajectory(nil), trips[:len(trips)/2]...))
	// Ingest the second half in several batches.
	rest := trips[len(trips)/2:]
	for len(rest) > 0 {
		n := len(rest)/3 + 1
		if n > len(rest) {
			n = len(rest)
		}
		grown.IngestTrips(rest[:n])
		rest = rest[n:]
	}
	return built, grown
}

// TestMinersIngestedMatchBuilt is the correctness anchor: for many random
// queries all three miners must agree exactly between the dataset grown
// through ingestion and the one built with every trip.
func TestMinersIngestedMatchBuilt(t *testing.T) {
	g := corpusGraph(t)
	templates := routeTemplates(t, g, 40, 5)
	// The ingested half carries routes the built half lacks, so a trip the
	// incremental path drops or double-counts changes the mined results.
	trips := append(syntheticTrips(templates[:20], 2000, 6), syntheticTrips(templates, 2000, 7)...)
	built, grown := twinDatasets(t, g, trips)

	miners := []Miner{NewMPR(), NewMFP(), NewLDR()}
	rng := rand.New(rand.NewSource(77))
	nn := g.NumNodes()
	for q := 0; q < 150; q++ {
		var from, to roadnet.NodeID
		if q%2 == 0 {
			// Template endpoints: queries the corpus can actually answer.
			r := templates[rng.Intn(len(templates))]
			from, to = r.Source(), r.Dest()
		} else {
			from = roadnet.NodeID(rng.Intn(nn))
			to = roadnet.NodeID(rng.Intn(nn))
		}
		// Fractional hours probe the MFP slot boundaries.
		tm := routing.SimTime(rng.Float64() * 7 * 24 * 60)
		for _, m := range miners {
			wantR, wantS, wantErr := m.Mine(built, from, to, tm)
			gotR, gotS, gotErr := m.Mine(grown, from, to, tm)
			if !errors.Is(gotErr, wantErr) && (gotErr == nil) != (wantErr == nil) {
				t.Fatalf("%s query %d (%d→%d @%v): err %v vs built %v", m.Name(), q, from, to, tm, gotErr, wantErr)
			}
			if !gotR.Equal(wantR) || gotS != wantS {
				t.Fatalf("%s query %d (%d→%d @%v): route/support %v %v vs built %v %v",
					m.Name(), q, from, to, tm, gotR, gotS, wantR, wantS)
			}
		}
	}
}

// TestMFPWindowBoundaryExact targets the full-slot/boundary-slot split of
// the footmark index: query hours sitting exactly on slot edges and window
// edges must produce identical frequency graphs on both datasets, which the
// bottleneck support value surfaces.
func TestMFPWindowBoundaryExact(t *testing.T) {
	g := corpusGraph(t)
	templates := routeTemplates(t, g, 10, 9)
	// Departures packed around slot boundaries and the ±window edge.
	var trips []traj.Trajectory
	d := 0
	for _, h := range []float64{5.999, 6.0, 6.001, 7.5, 7.999, 8.0, 9.999, 10.0, 10.001, 22.0, 23.999, 0.0} {
		for k := 0; k < 4; k++ {
			trips = append(trips, traj.Trajectory{
				Driver: traj.DriverID(d % 7),
				Depart: routing.SimTime(h * 60),
				Route:  templates[d%len(templates)],
			})
			d++
		}
	}
	built, grown := twinDatasets(t, g, trips)
	m := NewMFP()
	for _, qh := range []float64{0, 4.0, 4.001, 6.0, 7.999, 8.0, 8.001, 12.0, 23.999, 2.0, 10.0} {
		tm := routing.SimTime(qh * 60)
		for _, r := range templates[:3] {
			wantR, wantS, wantErr := m.Mine(built, r.Source(), r.Dest(), tm)
			gotR, gotS, gotErr := m.Mine(grown, r.Source(), r.Dest(), tm)
			if (gotErr == nil) != (wantErr == nil) || gotS != wantS || !gotR.Equal(wantR) {
				t.Fatalf("qh=%v od=%d→%d: grown (%v,%v,%v) vs built (%v,%v,%v)",
					qh, r.Source(), r.Dest(), gotR, gotS, gotErr, wantR, wantS, wantErr)
			}
		}
	}
}

// TestMinersDeterministicAcrossRuns: the searches over the road graph must
// make tie-broken results stable run to run on both datasets.
func TestMinersDeterministicAcrossRuns(t *testing.T) {
	g := corpusGraph(t)
	templates := routeTemplates(t, g, 20, 15)
	trips := syntheticTrips(templates, 1500, 16)
	built, grown := twinDatasets(t, g, trips)
	for _, ds := range []*traj.Dataset{built, grown} {
		for _, m := range []Miner{NewMPR(), NewMFP(), NewLDR()} {
			r := templates[0]
			r1, s1, e1 := m.Mine(ds, r.Source(), r.Dest(), routing.At(1, 9, 30))
			r2, s2, e2 := m.Mine(ds, r.Source(), r.Dest(), routing.At(1, 9, 30))
			if (e1 == nil) != (e2 == nil) || s1 != s2 || !r1.Equal(r2) {
				t.Fatalf("%s not deterministic: %v/%v vs %v/%v", m.Name(), r1, s1, r2, s2)
			}
		}
	}
}

// ---- benchmarks: the miners at 100k trips ----

var benchState struct {
	templates []roadnet.Route
	ds        *traj.Dataset
}

func benchMine(b *testing.B, m Miner) {
	if benchState.ds == nil {
		g := corpusGraph(b)
		// ~300 distinct ODs at ~330 trips each: large-corpus shape where no
		// single OD pair hoards the trips.
		benchState.templates = routeTemplates(b, g, 300, 21)
		benchState.ds = traj.NewDataset(g, nil, syntheticTrips(benchState.templates, 100_000, 22))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := benchState.templates[i%len(benchState.templates)]
		tm := routing.At(i%7, (8+i)%24, 30)
		_, _, _ = m.Mine(benchState.ds, r.Source(), r.Dest(), tm)
	}
}

func BenchmarkMineIndexedMPR100k(b *testing.B) { benchMine(b, NewMPR()) }
func BenchmarkMineIndexedMFP100k(b *testing.B) { benchMine(b, NewMFP()) }
func BenchmarkMineIndexedLDR100k(b *testing.B) { benchMine(b, NewLDR()) }

// ---- benchmarks: the miners on the default world as its corpus grows ----

// scaleState holds the default world's corpus (1.5k trips) and a copy
// grown to 600k trips by ingesting shifted copies of its trips in batches
// of 10, as a serving workload that ingests beside recommends would.
var scaleState struct {
	base, grown *traj.Dataset
	ods         [][2]roadnet.NodeID
}

func scaleDatasets() {
	if scaleState.base != nil {
		return
	}
	g := roadnet.Generate(roadnet.DefaultGenConfig())
	ds := traj.GenerateDataset(g, traj.NewPopulation(g, traj.DefaultPopulationConfig()), traj.DefaultDatasetConfig())
	grown := traj.NewDataset(g, ds.Drivers, append([]traj.Trajectory(nil), ds.Trips...))
	rng := rand.New(rand.NewSource(3))
	batch := make([]traj.Trajectory, 10)
	for grown.NumTrips() < 600_000 {
		for i := range batch {
			tr := ds.Trips[rng.Intn(len(ds.Trips))]
			tr.Depart += routing.SimTime(rng.Intn(7 * 1440))
			batch[i] = tr
		}
		grown.IngestTrips(batch)
	}
	// ODs a few nodes into corpus routes, where every miner has evidence.
	for range 256 {
		nodes := ds.Trips[rng.Intn(len(ds.Trips))].Route.Nodes
		cut := max(1, len(nodes)/4)
		from, to := nodes[rng.Intn(cut)], nodes[len(nodes)-1-rng.Intn(cut)]
		if from != to {
			scaleState.ods = append(scaleState.ods, [2]roadnet.NodeID{from, to})
		}
	}
	scaleState.base, scaleState.grown = ds, grown
}

// BenchmarkMinersAtScale times one call of each miner on corpus-route ODs
// at departures across the week, on the default world's corpus and on the
// same corpus grown to 600k trips. Per-call cost should not track the trip
// count.
func BenchmarkMinersAtScale(b *testing.B) {
	scaleDatasets()
	for _, size := range []struct {
		name string
		ds   *traj.Dataset
	}{{"1.5k", scaleState.base}, {"600k", scaleState.grown}} {
		for _, m := range []Miner{NewMPR(), NewMFP(), NewLDR()} {
			b.Run(m.Name()+"/"+size.name, func(b *testing.B) {
				for i := 0; b.Loop(); i++ {
					od := scaleState.ods[i%len(scaleState.ods)]
					_, _, _ = m.Mine(size.ds, od[0], od[1], routing.At(i%7, (6+i)%24, 30))
				}
			})
		}
	}
}
