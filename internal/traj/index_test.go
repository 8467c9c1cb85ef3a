package traj

import (
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"sync"
	"testing"

	"crowdplanner/internal/geo"
	"crowdplanner/internal/roadnet"
	"crowdplanner/internal/routing"
)

// ---- satellite regressions: corpus generation and sampling ----

// TestGroundTruthOrderInvariant is the regression test for the biased
// "sampling" fix: drivers[:sampleDrivers] polled a fixed prefix, so the
// verdict depended on the Drivers slice order. The hash-keyed subsample must
// return the same route for a shuffled copy of the population.
func TestGroundTruthOrderInvariant(t *testing.T) {
	g := testGraph()
	drivers := NewPopulation(g, DefaultPopulationConfig())
	ds := NewDataset(g, drivers, nil)

	shuffled := append([]*Driver(nil), drivers...)
	rand.New(rand.NewSource(13)).Shuffle(len(shuffled), func(i, j int) {
		shuffled[i], shuffled[j] = shuffled[j], shuffled[i]
	})
	dsShuffled := NewDataset(g, shuffled, nil)

	for _, od := range [][2]roadnet.NodeID{{0, 77}, {5, 91}, {12, 60}} {
		want, err := ds.GroundTruth(od[0], od[1], routing.At(0, 8, 30), 40)
		if err != nil {
			t.Fatal(err)
		}
		got, err := dsShuffled.GroundTruth(od[0], od[1], routing.At(0, 8, 30), 40)
		if err != nil {
			t.Fatal(err)
		}
		if !got.Equal(want) {
			t.Fatalf("OD %v: shuffled population polled a different sample: %v vs %v", od, got, want)
		}
	}
}

// TestSampleByIDNotPrefix: the subsample must actually spread over the
// population instead of reproducing the old prefix behaviour.
func TestSampleByIDNotPrefix(t *testing.T) {
	g := testGraph()
	drivers := NewPopulation(g, DefaultPopulationConfig())
	picked := rankByID(drivers)[:40]
	if len(picked) != 40 {
		t.Fatalf("picked %d drivers, want 40", len(picked))
	}
	seen := map[DriverID]bool{}
	beyondPrefix := false
	for _, d := range picked {
		if seen[d.ID] {
			t.Fatalf("driver %d picked twice", d.ID)
		}
		seen[d.ID] = true
		if int(d.ID) >= 40 {
			beyondPrefix = true
		}
	}
	if !beyondPrefix {
		t.Fatal("sample is exactly the old prefix; expected spread over the population")
	}
}

// TestRandomODsShortfall: a graph too small/dense to satisfy MinODDistM must
// report how many requested ODs never materialized instead of silently
// returning fewer.
func TestRandomODsShortfall(t *testing.T) {
	g := roadnet.NewGraph(3, 6)
	g.AddNode(geo.Point{X: 0, Y: 0})
	g.AddNode(geo.Point{X: 100, Y: 0})
	g.AddNode(geo.Point{X: 200, Y: 0})
	g.AddRoad(0, 1, roadnet.Local, 0, 0)
	g.AddRoad(1, 2, roadnet.Local, 0, 0)

	rng := rand.New(rand.NewSource(3))
	// Impossible distance constraint: every OD fails, full shortfall.
	ods, shortfall := RandomODs(g, 10, 1e6, rng)
	if len(ods) != 0 || shortfall != 10 {
		t.Fatalf("impossible constraint: %d ODs, shortfall %d; want 0 and 10", len(ods), shortfall)
	}
	// Only 6 distinct ordered pairs exist; asking for 30 must report 24 short.
	ods, shortfall = RandomODs(g, 30, 0, rng)
	if len(ods)+shortfall != 30 {
		t.Fatalf("ods %d + shortfall %d != requested 30", len(ods), shortfall)
	}
	if shortfall < 24 {
		t.Fatalf("shortfall = %d, want >= 24 (only 6 distinct pairs exist)", shortfall)
	}
}

// TestGenerateDatasetExactTotal is the trip-count-drift regression: the
// largest-remainder allocation must realize exactly NumODs*TripsPerOD trips
// (per-OD rounding plus the old >=1 clamp used to drift the corpus size).
func TestGenerateDatasetExactTotal(t *testing.T) {
	g := testGraph()
	drivers := NewPopulation(g, PopulationConfig{NumDrivers: 30, Seed: 5, FracCommuter: 1})
	for _, cfg := range []DatasetConfig{
		{NumODs: 10, TripsPerOD: 8, ZipfSkew: 1, MinODDistM: 1000, GPS: DefaultGPSConfig(), Seed: 6},
		{NumODs: 7, TripsPerOD: 13, ZipfSkew: 2.5, MinODDistM: 800, GPS: DefaultGPSConfig(), Seed: 7},
		{NumODs: 12, TripsPerOD: 5, ZipfSkew: 0, MinODDistM: 500, GPS: DefaultGPSConfig(), Seed: 8},
	} {
		ds := GenerateDataset(g, drivers, cfg)
		if ds.ODShortfall != 0 {
			t.Fatalf("cfg %+v: unexpected OD shortfall %d", cfg, ds.ODShortfall)
		}
		if got, want := len(ds.Trips), cfg.NumODs*cfg.TripsPerOD; got != want {
			t.Errorf("cfg skew=%v: %d trips, want exactly %d", cfg.ZipfSkew, got, want)
		}
	}
}

// TestGenerateDatasetShortfallAccounted: when ODs under-deliver, the full
// trip budget is still spread over the realized ODs and the shortfall is
// surfaced on the dataset.
func TestGenerateDatasetShortfallAccounted(t *testing.T) {
	g := roadnet.NewGraph(4, 10)
	g.AddNode(geo.Point{X: 0, Y: 0})
	g.AddNode(geo.Point{X: 2000, Y: 0})
	g.AddNode(geo.Point{X: 0, Y: 2000})
	g.AddNode(geo.Point{X: 2000, Y: 2000})
	g.AddRoad(0, 1, roadnet.Local, 0, 0)
	g.AddRoad(0, 2, roadnet.Local, 0, 0)
	g.AddRoad(1, 3, roadnet.Local, 0, 0)
	g.AddRoad(2, 3, roadnet.Local, 0, 0)

	drivers := NewPopulation(g, PopulationConfig{NumDrivers: 10, Seed: 2, FracCommuter: 1})
	cfg := DatasetConfig{
		// Only 12 distinct ordered pairs exist; 20 are requested.
		NumODs: 20, TripsPerOD: 5, ZipfSkew: 1, MinODDistM: 0,
		GPS: DefaultGPSConfig(), Seed: 4,
	}
	ds := GenerateDataset(g, drivers, cfg)
	if ds.ODShortfall < 8 {
		t.Fatalf("shortfall = %d, want >= 8", ds.ODShortfall)
	}
	if got, want := len(ds.Trips), cfg.NumODs*cfg.TripsPerOD; got != want {
		t.Errorf("trips = %d, want the full budget %d despite the OD shortfall", got, want)
	}
}

// TestApportionExact: property check on the largest-remainder helper.
func TestApportionExact(t *testing.T) {
	rng := rand.New(rand.NewSource(44))
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.Intn(20)
		weights := make([]float64, n)
		var wsum float64
		for i := range weights {
			weights[i] = rng.Float64() + 1e-6
			wsum += weights[i]
		}
		total := rng.Intn(500)
		shares := apportion(total, weights, wsum)
		sum := 0
		for _, s := range shares {
			if s < 0 {
				t.Fatalf("negative share %d", s)
			}
			sum += s
		}
		if sum != total {
			t.Fatalf("trial %d: shares sum %d, want %d", trial, sum, total)
		}
	}
}

// ---- mining index: equivalence with linear scans, ingestion semantics ----

// corpus builds a small generated dataset for index tests.
func corpus(t *testing.T, seed int64) *Dataset {
	t.Helper()
	g := testGraph()
	drivers := NewPopulation(g, PopulationConfig{NumDrivers: 40, Seed: seed, FracCommuter: 1})
	return GenerateDataset(g, drivers, DatasetConfig{
		NumODs: 12, TripsPerOD: 10, ZipfSkew: 1, MinODDistM: 1000,
		PeakBias: 0.5, GPS: DefaultGPSConfig(), Seed: seed + 1,
	})
}

// grown rebuilds ds with the first half of its trips present at
// construction and the second half arriving through IngestTrips in several
// batches, so the queries also run on the incremental (copy-on-write) path.
func grown(ds *Dataset) *Dataset {
	cut := len(ds.Trips) / 2
	out := NewDataset(ds.Graph, ds.Drivers, append([]Trajectory(nil), ds.Trips[:cut]...))
	for rest := ds.Trips[cut:]; len(rest) > 0; {
		n := min(len(rest), len(rest)/3+1)
		out.IngestTrips(rest[:n])
		rest = rest[n:]
	}
	return out
}

// The linear scans below are the oracles: each index query must return
// exactly what its scan over the full corpus — the constructed trips, then
// the ingested stream — returns.

// Transition is one observed hop between consecutive route nodes, the unit
// the scans count footmarks in.
type Transition struct {
	From, To roadnet.NodeID
}

// routeTransitions visits the consecutive node pairs of a route.
func routeTransitions(r roadnet.Route, fn func(t Transition)) {
	for i := 1; i < len(r.Nodes); i++ {
		fn(Transition{From: r.Nodes[i-1], To: r.Nodes[i]})
	}
}

// allTrips is the full corpus in row order.
func allTrips(ds *Dataset) []Trajectory {
	return append(append([]Trajectory(nil), ds.Trips...), ds.IngestedTrips()...)
}

// tripKey identifies a (driver, route) tally by the route's nodes.
type tripKey struct {
	driver DriverID
	route  string
}

func scanTripCounts(ds *Dataset, from, to roadnet.NodeID, radius float64) map[tripKey]int {
	out := map[tripKey]int{}
	fp := ds.Graph.Node(from).Pt
	tp := ds.Graph.Node(to).Pt
	for _, tr := range allTrips(ds) {
		if tr.Route.Empty() {
			continue
		}
		s := ds.Graph.Node(tr.Route.Source()).Pt
		d := ds.Graph.Node(tr.Route.Dest()).Pt
		if distOK(s, fp, radius) && distOK(d, tp, radius) {
			out[tripKey{tr.Driver, tr.Route.String()}]++
		}
	}
	return out
}

func scanTransitions(ds *Dataset) (map[Transition]int, map[roadnet.NodeID]int) {
	counts := map[Transition]int{}
	out := map[roadnet.NodeID]int{}
	for _, tr := range allTrips(ds) {
		routeTransitions(tr.Route, func(tn Transition) {
			counts[tn]++
			out[tn.From]++
		})
	}
	return counts, out
}

func scanFootmarks(ds *Dataset, hour, window float64) map[Transition]int {
	freq := map[Transition]int{}
	for _, tr := range allTrips(ds) {
		if hourDist(tr.Depart.HourOfDay(), hour) > window {
			continue
		}
		routeTransitions(tr.Route, func(tn Transition) { freq[tn]++ })
	}
	return freq
}

// footmarkMap turns per-edge counts into the scans' transition map,
// failing if a count sits on an edge that is not its pair's canonical one.
func footmarkMap(t *testing.T, ds *Dataset, counts []int32) map[Transition]int {
	t.Helper()
	m := map[Transition]int{}
	for i, c := range counts {
		if c == 0 {
			continue
		}
		e := roadnet.EdgeID(i)
		if ds.CanonicalEdge(e) != e {
			t.Fatalf("edge %d counts %d hops but is not canonical", e, c)
		}
		ed := ds.Graph.Edge(e)
		m[Transition{ed.From, ed.To}] = int(c)
	}
	return m
}

// tripCountMap turns TripCounts' result into the scan's map, failing
// unless it is sorted by (driver, route) without repeats.
func tripCountMap(t *testing.T, ds *Dataset, counts []TripCount) map[tripKey]int {
	t.Helper()
	m := map[tripKey]int{}
	for i, c := range counts {
		if i > 0 {
			p := counts[i-1]
			if p.Driver > c.Driver || (p.Driver == c.Driver && p.Route >= c.Route) {
				t.Fatalf("counts out of order at %d: %+v then %+v", i, p, c)
			}
		}
		m[tripKey{c.Driver, ds.Route(c.Route).String()}] = c.Trips
	}
	return m
}

// TestTripCountsMatchesScan: LDR's aggregate must count exactly the trips
// the endpoint scan matches, by driver and route, across radii — including
// radius 0 (exact endpoints) — on a built and a grown corpus.
func TestTripCountsMatchesScan(t *testing.T) {
	built := corpus(t, 21)
	for _, ds := range []*Dataset{built, grown(built)} {
		rng := rand.New(rand.NewSource(5))
		nn := ds.Graph.NumNodes()
		for q := 0; q < 120; q++ {
			var from, to roadnet.NodeID
			if q%2 == 0 && len(ds.Trips) > 0 {
				r := ds.Trips[rng.Intn(len(ds.Trips))].Route
				if r.Empty() {
					continue
				}
				from, to = r.Source(), r.Dest()
			} else {
				from = roadnet.NodeID(rng.Intn(nn))
				to = roadnet.NodeID(rng.Intn(nn))
			}
			radius := []float64{0, 150, 300, 800}[q%4]
			want := scanTripCounts(ds, from, to, radius)
			got := tripCountMap(t, ds, ds.TripCounts(from, to, radius))
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("query %d (%d→%d r=%.0f): aggregate %v, scan %v", q, from, to, radius, got, want)
			}
		}
	}
}

// TestTransitionTotalsMatchesScan: the corpus-wide transfer network must
// equal a per-trip count, including after ingestion grew the corpus.
func TestTransitionTotalsMatchesScan(t *testing.T) {
	built := corpus(t, 26)
	for _, ds := range []*Dataset{built, grown(built)} {
		wantCounts, wantOut := scanTransitions(ds)
		counts, out := ds.TransitionTotals()
		gotCounts := footmarkMap(t, ds, counts)
		gotOut := map[roadnet.NodeID]int{}
		for n, c := range out {
			if c != 0 {
				gotOut[roadnet.NodeID(n)] = int(c)
			}
		}
		if !reflect.DeepEqual(gotCounts, wantCounts) || !reflect.DeepEqual(gotOut, wantOut) {
			t.Fatalf("transition totals: %d transitions / %d nodes, scan %d / %d",
				len(gotCounts), len(gotOut), len(wantCounts), len(wantOut))
		}
	}
}

// TestFootmarksNearHourMatchesScan: the per-slot counts + boundary-filter
// assembly must equal a direct per-trip scan for arbitrary fractional hours
// and window widths (including degenerate ones), and for departures and
// query hours sitting exactly on slot and window edges.
func TestFootmarksNearHourMatchesScan(t *testing.T) {
	built := corpus(t, 31)
	edges := []float64{0, 2, 4, 4.001, 5.999, 6, 6.001, 7.5, 7.999, 8, 8.001, 9.999, 10, 10.001, 12, 22, 23.999}
	packed := append([]Trajectory(nil), built.Trips...)
	for i, h := range edges {
		tr := built.Trips[i%len(built.Trips)]
		tr.Depart = routing.At(i%5, 0, 0).Add(h * 60)
		packed = append(packed, tr)
	}
	windows := []float64{0, 0.25, 1, 2, 2.5, 6, 11.9, 12, 13}
	type query struct{ hour, window float64 }
	var queries []query
	rng := rand.New(rand.NewSource(6))
	for q := 0; q < 100; q++ {
		queries = append(queries, query{rng.Float64() * 24, windows[q%len(windows)]})
	}
	for _, h := range edges {
		for _, w := range windows {
			queries = append(queries, query{h, w})
		}
	}
	for _, ds := range []*Dataset{built, grown(built), NewDataset(built.Graph, nil, packed), grown(NewDataset(built.Graph, nil, packed))} {
		for _, q := range queries {
			freq := ds.FootmarksNearHour(q.hour, q.window)
			got := footmarkMap(t, ds, freq)
			want := scanFootmarks(ds, q.hour, q.window)
			if !reflect.DeepEqual(got, want) || (freq == nil) != (len(want) == 0) {
				t.Fatalf("hour=%v window=%v: %d transitions (nil %v) vs scan %d", q.hour, q.window, len(got), freq == nil, len(want))
			}
		}
	}
}

// TestIngestUpdatesIndexes: trips added after construction must appear in
// every index-backed query exactly as if they had been present at build
// time.
func TestIngestUpdatesIndexes(t *testing.T) {
	full := corpus(t, 41)
	cut := len(full.Trips) / 2
	rest := full.Trips[cut:]
	half := NewDataset(full.Graph, full.Drivers, append([]Trajectory(nil), full.Trips[:cut]...))
	if seq := half.IngestTrips(rest); seq != 0 {
		t.Fatalf("first ingested seq = %d, want 0", seq)
	}

	if half.NumTrips() != full.NumTrips() {
		t.Fatalf("trip counts differ: %d vs %d", half.NumTrips(), full.NumTrips())
	}
	if got := half.IngestedTrips(); len(got) != len(rest) {
		t.Fatalf("IngestedTrips = %d, want %d", len(got), len(rest))
	} else {
		for i := range got {
			if got[i].Driver != rest[i].Driver || got[i].Depart != rest[i].Depart || !got[i].Route.Equal(rest[i].Route) {
				t.Fatalf("ingested trip %d = %+v, want %+v", i, got[i], rest[i])
			}
		}
	}
	if got := len(full.IngestedTrips()); got != 0 {
		t.Fatalf("build-time corpus reported %d ingested trips", got)
	}

	gc, go_ := full.TransitionTotals()
	hc, ho := half.TransitionTotals()
	if !reflect.DeepEqual(gc, hc) || !reflect.DeepEqual(go_, ho) {
		t.Fatal("transition totals diverge between ingest and build-time indexing")
	}
	for hour := 0.0; hour < 24; hour += 1.7 {
		a := full.FootmarksNearHour(hour, 2)
		b := half.FootmarksNearHour(hour, 2)
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("footmarks at hour %v diverge", hour)
		}
	}
	for _, tr := range rest[:3] {
		if tr.Route.Empty() {
			continue
		}
		a := tripCountMap(t, full, full.TripCounts(tr.Route.Source(), tr.Route.Dest(), 300))
		b := tripCountMap(t, half, half.TripCounts(tr.Route.Source(), tr.Route.Dest(), 300))
		if !reflect.DeepEqual(a, b) || len(a) == 0 {
			t.Fatalf("TripCounts diverges for ingested OD %d→%d: %v vs %v", tr.Route.Source(), tr.Route.Dest(), a, b)
		}
	}
}

// TestIngestCopiesRoutes: the route table copies a route the first time it
// sees it and hands out copies, so neither the caller's slice nor a
// returned trip can change the corpus afterwards.
func TestIngestCopiesRoutes(t *testing.T) {
	src := corpus(t, 46)
	ds := NewDataset(src.Graph, nil, nil) // an empty table: the route is new
	want := src.Trips[0].Route
	tr := src.Trips[0]
	tr.Route = want.Clone()
	ds.IngestTrips([]Trajectory{tr})
	for i := range tr.Route.Nodes {
		tr.Route.Nodes[i] = 0
	}
	got := ds.IngestedTrips()[0].Route
	if !got.Equal(want) {
		t.Fatalf("ingested route changed with the caller's slice: %v, want %v", got, want)
	}
	for i := range got.Nodes {
		got.Nodes[i] = 0
	}
	if again := ds.IngestedTrips()[0].Route; !again.Equal(want) {
		t.Fatalf("ingested route changed with a returned trip: %v, want %v", again, want)
	}
}

// TestConcurrentIngestAndQueries: queries running beside ingestion see
// whole batches. The transfer network a reader takes must total the hops of
// the corpus after some number of complete batches, and stay that way while
// the reader keeps using it after the lock is released.
func TestConcurrentIngestAndQueries(t *testing.T) {
	ds := corpus(t, 71)
	rng := rand.New(rand.NewSource(8))
	hops := func(trips []Trajectory) int64 {
		n := int64(0)
		for _, tr := range trips {
			n += int64(max(len(tr.Route.Nodes)-1, 0))
		}
		return n
	}
	total := hops(ds.Trips)
	valid := map[int64]bool{total: true} // hop totals after each whole batch
	batches := make([][]Trajectory, 60)
	for b := range batches {
		for range 10 {
			tr := ds.Trips[rng.Intn(len(ds.Trips))]
			tr.Depart += routing.SimTime(rng.Intn(7 * 1440))
			batches[b] = append(batches[b], tr)
		}
		total += hops(batches[b])
		valid[total] = true
	}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for _, b := range batches {
			ds.IngestTrips(b)
		}
	}()
	for r := range 3 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range 100 {
				counts, _ := ds.TransitionTotals()
				ds.FootmarksNearHour(float64((i+r)%24), 2)
				od := ds.Trips[(i*7+r)%len(ds.Trips)].Route
				ds.TripCounts(od.Source(), od.Dest(), 300)
				ds.IngestedStream()
				sum := int64(0)
				for _, c := range counts {
					sum += int64(c)
				}
				if !valid[sum] {
					t.Errorf("reader saw %d hops, not the total after any whole batch", sum)
					return
				}
			}
		}()
	}
	wg.Wait()
	counts, _ := ds.TransitionTotals()
	want, _ := scanTransitions(ds)
	if got := footmarkMap(t, ds, counts); !reflect.DeepEqual(got, want) {
		t.Fatal("transition totals after concurrent ingestion differ from the scan")
	}
}

// TestIngestedStreamExactDepartures: the slot columns keep a departure as
// a minute of day and a day number; IngestedStream must give back every
// departure bit for bit, including ones that split does not reproduce
// (negative, -0, huge, non-finite), which the index keeps whole.
func TestIngestedStreamExactDepartures(t *testing.T) {
	ds := corpus(t, 76)
	departs := []float64{
		0, math.Copysign(0, -1), 510.123456789, 1e-300, 1439.9999999999998, 1440,
		10079.999999999998, 10080, 7*1440*1000 + 0.1, 1e15 + 0.5, 1e300,
		-5, -1e-20, math.NaN(), math.Inf(1), math.Inf(-1),
	}
	rng := rand.New(rand.NewSource(9))
	for range 200 {
		departs = append(departs, rng.Float64()*7*1440*rng.Float64()*100)
	}
	var in []Trajectory
	for i, d := range departs {
		tr := ds.Trips[i%len(ds.Trips)]
		tr.Depart = routing.SimTime(d)
		if i%7 == 0 {
			tr.Route = roadnet.NewRoute(tr.Route.Source()) // no hop: the pseudo-slot
		}
		in = append(in, tr)
	}
	ds.IngestTrips(in)
	got := ds.IngestedTrips()
	if len(got) != len(in) {
		t.Fatalf("%d trips back, want %d", len(got), len(in))
	}
	for i := range in {
		if math.Float64bits(float64(got[i].Depart)) != math.Float64bits(float64(in[i].Depart)) ||
			got[i].Driver != in[i].Driver || !got[i].Route.Equal(in[i].Route) {
			t.Fatalf("trip %d = %+v, want %+v", i, got[i], in[i])
		}
	}
}

// TestIngestSeqContiguous: sequence numbers count the ingested stream, not
// the base corpus, and advance contiguously across batches.
func TestIngestSeqContiguous(t *testing.T) {
	ds := corpus(t, 51)
	tr := ds.Trips[0]
	if seq := ds.IngestTrips([]Trajectory{tr, tr}); seq != 0 {
		t.Fatalf("first batch seq = %d, want 0", seq)
	}
	if seq := ds.IngestTrips([]Trajectory{tr}); seq != 2 {
		t.Fatalf("second batch seq = %d, want 2", seq)
	}
	if got := len(ds.IngestedTrips()); got != 3 {
		t.Fatalf("ingested = %d, want 3", got)
	}
	if _, seqs := ds.IngestedStream(); !reflect.DeepEqual(seqs, []int64{0, 1, 2}) {
		t.Fatalf("seqs = %v, want [0 1 2]", seqs)
	}
}

// TestRestoreTripsSeqGap: replaying a stream with gaps (records lost to an
// absorbed append failure) must not let live ingestion reuse a surviving
// sequence number — a reused Seq would collide with the retained record and
// be silently dropped by the replay dedupe on the next boot.
func TestRestoreTripsSeqGap(t *testing.T) {
	ds := corpus(t, 61)
	tr := ds.Trips[0]

	// Replay a stream where seq 0 was lost: only seqs 1 and 4 survive.
	ds.RestoreTrips([]Trajectory{tr, tr}, []int64{1, 4})
	if seq := ds.IngestTrips([]Trajectory{tr}); seq != 5 {
		t.Fatalf("post-replay ingest seq = %d, want 5 (past the highest survivor)", seq)
	}
	trips, seqs := ds.IngestedStream()
	if len(trips) != 3 || len(seqs) != 3 {
		t.Fatalf("stream = %d trips / %d seqs, want 3/3", len(trips), len(seqs))
	}
	for i, want := range []int64{1, 4, 5} {
		if seqs[i] != want {
			t.Fatalf("seqs = %v, want [1 4 5]", seqs)
		}
	}
}

// TestNewDatasetRejectsNonEdgeHop: the footmark counts are per edge, so a
// route hop that is not a graph edge is a caller bug NewDataset refuses.
func TestNewDatasetRejectsNonEdgeHop(t *testing.T) {
	g := testGraph()
	var far roadnet.NodeID
	for n := 1; n < g.NumNodes(); n++ {
		if _, ok := g.FindEdge(0, roadnet.NodeID(n)); !ok {
			far = roadnet.NodeID(n)
			break
		}
	}
	defer func() {
		if recover() == nil {
			t.Fatal("NewDataset accepted a hop that is not an edge")
		}
	}()
	NewDataset(g, nil, []Trajectory{{Route: roadnet.NewRoute(0, far)}})
}

// TestIngestHeapPerTrip: an ingested trip may retain at most 32 bytes of
// heap — a 16-byte row plus a 12-byte slot-column entry — once its route is
// in the route table. The trips are shifted copies of the default corpus,
// ingested in batches of 10 as the serving benchmark sends them.
func TestIngestHeapPerTrip(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's shadow memory makes heap sizes meaningless")
	}
	src := world(false)
	ds := NewDataset(src.Graph, src.Drivers, append([]Trajectory(nil), src.Trips...))
	rng := rand.New(rand.NewSource(3))
	batch := make([]Trajectory, 10)
	const n = 200_000
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for range n / len(batch) {
		for i := range batch {
			tr := src.Trips[rng.Intn(len(src.Trips))]
			tr.Depart += routing.SimTime(rng.Intn(7 * 1440))
			batch[i] = tr
		}
		ds.IngestTrips(batch)
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	if got := ds.NumTrips(); got != len(src.Trips)+n {
		t.Fatalf("corpus = %d trips, want %d", got, len(src.Trips)+n)
	}
	perTrip := (float64(after.HeapAlloc) - float64(before.HeapAlloc)) / n
	t.Logf("%.1f B of retained heap per ingested trip", perTrip)
	if perTrip > 32 {
		t.Fatalf("ingest retains %.1f B per trip, budget 32 B", perTrip)
	}
	runtime.KeepAlive(ds)
}

func TestHourDistance(t *testing.T) {
	cases := []struct{ a, b, want float64 }{
		{8, 10, 2},
		{23, 1, 2},
		{0, 12, 12},
		{6, 6, 0},
	}
	for _, c := range cases {
		if got := hourDist(c.a, c.b); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("hourDist(%v,%v) = %v, want %v", c.a, c.b, got, c.want)
		}
	}
}
