package traj

import (
	"math"
	"math/rand"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"

	"crowdplanner/internal/roadnet"
	"crowdplanner/internal/routing"
)

// OD is an origin-destination pair.
type OD struct {
	From roadnet.NodeID
	To   roadnet.NodeID
}

// Dataset is a corpus of historical trajectories over one road network,
// the substitute for the paper's "large-scale real trajectory dataset".
// Unlike the paper's frozen dataset it can grow at runtime: IngestTrips
// appends to the corpus and keeps the mining indexes (see index.go) current,
// concurrently with miner queries. Construct with NewDataset (or
// GenerateDataset), which builds the indexes.
//
// Direct access to the Trips slice is safe only before serving starts (or on
// datasets that never ingest); concurrent readers go through NumTrips,
// TripsBetween and the index query methods, which take the dataset's lock.
type Dataset struct {
	Graph   *roadnet.Graph
	Drivers []*Driver
	Trips   []Trajectory

	// ODShortfall counts requested ODs that could not be materialized under
	// the MinODDistM constraint (see RandomODs); the trip budget is
	// redistributed over the realized ODs, so the corpus size still matches
	// NumODs*TripsPerOD.
	ODShortfall int

	// ranked is Drivers ordered by rankByID and weights the per-edge bound
	// weights of the GroundTruth poll; both are fixed at construction.
	ranked  []*Driver
	weights boundWeights

	mu sync.RWMutex
	//cplint:guardedby mu
	idx *miningIndex
	//cplint:guardedby mu
	base int // trips[:base] = generated world; trips[base:] = ingested
	// Ingestion-stream bookkeeping: ingSeqs[i] is the durable sequence
	// number of trips[base+i], and nextSeq the number the next ingested trip
	// gets. Seqs are NOT derivable from slice position — a crash can lose
	// the tail of the persisted stream (an absorbed append failure), after
	// which replay leaves gaps that live ingestion must not re-fill, or a
	// stale Seq would collide with a retained record and be dropped by the
	// replay dedupe.
	//cplint:guardedby mu
	ingSeqs []int64
	//cplint:guardedby mu
	nextSeq int64
}

// DatasetConfig controls synthetic corpus generation.
type DatasetConfig struct {
	NumODs     int     // distinct OD pairs in the corpus
	TripsPerOD int     // average trips per OD pair (Zipf-skewed around this)
	ZipfSkew   float64 // >0 skews trips towards popular ODs; 0 = uniform
	MinODDistM float64 // minimum straight-line OD distance
	PeakBias   float64 // 0..1 fraction of departures in rush hours
	GPS        GPSConfig
	Seed       int64
}

// DefaultDatasetConfig produces a moderately dense corpus.
func DefaultDatasetConfig() DatasetConfig {
	return DatasetConfig{
		NumODs:     60,
		TripsPerOD: 25,
		ZipfSkew:   1.0,
		MinODDistM: 1500,
		PeakBias:   0.6,
		GPS:        DefaultGPSConfig(),
		Seed:       21,
	}
}

// RandomODs draws distinct OD node pairs at least minDist apart. The graph
// may be too small or too dense to satisfy the constraint n times before the
// attempt cap trips; rather than silently under-delivering, the shortfall
// (n minus the ODs actually drawn) is returned so callers can account for
// the missing pairs.
func RandomODs(g *roadnet.Graph, n int, minDist float64, rng *rand.Rand) (ods []OD, shortfall int) {
	seen := map[OD]bool{}
	attempts := 0
	for len(ods) < n && attempts < n*200 {
		attempts++
		a := roadnet.NodeID(rng.Intn(g.NumNodes()))
		b := roadnet.NodeID(rng.Intn(g.NumNodes()))
		if a == b {
			continue
		}
		if dist := nodeDist(g, a, b); dist < minDist {
			continue
		}
		od := OD{From: a, To: b}
		if seen[od] {
			continue
		}
		seen[od] = true
		ods = append(ods, od)
	}
	return ods, n - len(ods)
}

func nodeDist(g *roadnet.Graph, a, b roadnet.NodeID) float64 {
	pa, pb := g.Node(a).Pt, g.Node(b).Pt
	dx, dy := pa.X-pb.X, pa.Y-pb.Y
	return math.Hypot(dx, dy)
}

// randomDepart draws a departure time: rush hour with probability peakBias,
// otherwise uniform over the day. Weekdays only, matching commuter data.
func randomDepart(rng *rand.Rand, peakBias float64) routing.SimTime {
	day := rng.Intn(5)
	if rng.Float64() < peakBias {
		// Morning or evening rush, gaussian around the peak.
		var center float64
		if rng.Intn(2) == 0 {
			center = 8
		} else {
			center = 17.5
		}
		h := center + rng.NormFloat64()*0.75
		if h < 0 {
			h = 0
		}
		if h > 23.5 {
			h = 23.5
		}
		return routing.At(day, 0, 0).Add(h * 60)
	}
	return routing.At(day, 0, 0).Add(rng.Float64() * 24 * 60)
}

// GenerateDataset simulates the trajectory corpus: ODs are drawn, trips per
// OD follow a Zipf-like skew, each trip is driven by a random driver under
// their latent preferences with per-trip noise, then recorded as noisy GPS
// and map-matched back onto the network.
func GenerateDataset(g *roadnet.Graph, drivers []*Driver, cfg DatasetConfig) *Dataset {
	rng := rand.New(rand.NewSource(cfg.Seed))
	ods, shortfall := RandomODs(g, cfg.NumODs, cfg.MinODDistM, rng)
	if len(ods) == 0 {
		ds := NewDataset(g, drivers, nil)
		ds.ODShortfall = shortfall
		return ds
	}

	// Zipf-like trip counts: OD i gets weight 1/(i+1)^skew. The full trip
	// budget (NumODs*TripsPerOD, even when RandomODs under-delivered ODs) is
	// apportioned by largest remainder, so the allocations sum to the budget
	// exactly — per-OD rounding used to drift the realized corpus away from
	// the configured size.
	weights := make([]float64, len(ods))
	var wsum float64
	for i := range ods {
		w := 1.0
		if cfg.ZipfSkew > 0 {
			w = 1 / math.Pow(float64(i+1), cfg.ZipfSkew)
		}
		weights[i] = w
		wsum += w
	}
	totalTrips := cfg.TripsPerOD * cfg.NumODs
	var trips []Trajectory
	for i, nTrips := range apportion(totalTrips, weights, wsum) {
		od := ods[i]
		for k := 0; k < nTrips; k++ {
			d := drivers[rng.Intn(len(drivers))]
			depart := randomDepart(rng, cfg.PeakBias)
			route, err := d.RouteFor(g, od.From, od.To, depart, rng)
			if err != nil {
				continue
			}
			tr := Trace(g, d, route, depart, cfg.GPS, rng)
			matched, err := MapMatch(g, tr.Samples)
			if err == nil {
				tr.Route = matched
				tr.Samples = nil
			}
			trips = append(trips, tr)
		}
	}
	ds := NewDataset(g, drivers, trips)
	ds.ODShortfall = shortfall
	return ds
}

// NewDataset wraps trips as the base corpus over g and builds the mining
// indexes over them. Trips added later through IngestTrips are the live
// stream a storage backend persists. The dataset takes ownership of trips.
func NewDataset(g *roadnet.Graph, drivers []*Driver, trips []Trajectory) *Dataset {
	ds := &Dataset{Graph: g, Drivers: drivers, Trips: trips, ranked: rankByID(drivers), weights: newBoundWeights(g)}
	ds.mu.Lock()
	defer ds.mu.Unlock()
	ds.base = len(trips)
	ds.idx = newMiningIndex(defaultIndexCellM)
	for i := range ds.Trips {
		ds.idx.addTrip(g, i, &ds.Trips[i])
	}
	return ds
}

// apportion splits total into integer shares proportional to weights using
// the largest-remainder method: floors first, then the leftover units go to
// the largest fractional remainders (ties to the lower index, so the split
// is deterministic). The shares always sum to total.
func apportion(total int, weights []float64, wsum float64) []int {
	shares := make([]int, len(weights))
	type frac struct {
		i int
		r float64
	}
	rem := make([]frac, 0, len(weights))
	assigned := 0
	for i, w := range weights {
		exact := float64(total) * w / wsum
		shares[i] = int(math.Floor(exact))
		assigned += shares[i]
		rem = append(rem, frac{i: i, r: exact - math.Floor(exact)})
	}
	sort.Slice(rem, func(a, b int) bool {
		if rem[a].r != rem[b].r {
			return rem[a].r > rem[b].r
		}
		return rem[a].i < rem[b].i
	})
	for k := 0; k < total-assigned; k++ {
		shares[rem[k%len(rem)].i]++
	}
	return shares
}

// GroundTruth returns the population-preferred route for the OD at time t:
// every driver's noise-free preferred route is computed and the most common
// choice (the mode) wins. sampleDrivers caps the poll size; 0 polls everyone.
// This is the measurable stand-in for "the route most experienced drivers
// prefer" that all recommenders are scored against.
//
// The capped poll is a deterministic subsample keyed on driver IDs (see
// rankByID), not a prefix of the Drivers slice: drivers[:sampleDrivers]
// always polled the same fixed drivers, biasing the "population" mode toward
// whoever happened to be generated first and making the verdict depend on
// slice order.
//
// The poll computes the destination bound (three reverse sweeps from to)
// once and shares it with every driver's search, and runs the drivers on
// min(GOMAXPROCS, sample) goroutines, the caller among them. Votes are
// tallied in sample order, so the verdict does not depend on scheduling.
func (ds *Dataset) GroundTruth(from, to roadnet.NodeID, t routing.SimTime, sampleDrivers int) (roadnet.Route, error) {
	drivers := ds.ranked
	if sampleDrivers > 0 && sampleDrivers < len(drivers) {
		drivers = drivers[:sampleDrivers]
	}
	g := ds.Graph
	bound, err := ds.weights.to(g, to)
	if err != nil { // to is not a node: no driver finds a route
		return roadnet.Route{}, routing.ErrNoRoute
	}
	routes := make([]roadnet.Route, len(drivers)) // empty: the driver found no route
	var next atomic.Int64
	poll := func() {
		h := make([]float64, g.NumNodes())
		for {
			i := int(next.Add(1)) - 1
			if i >= len(drivers) {
				return
			}
			if r, err := drivers[i].preferredRoute(g, from, to, t, bound, h); err == nil {
				routes[i] = r
			}
		}
	}
	var wg sync.WaitGroup
	for range min(runtime.GOMAXPROCS(0), len(drivers)) - 1 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			poll()
		}()
	}
	poll()
	wg.Wait()
	return mode(routes)
}

// mode returns the most common non-empty route, ties going to the smallest
// Route.String() (the order the string-keyed tally used to sort its keys
// in); the strings are built only when there is a tie.
func mode(routes []roadnet.Route) (roadnet.Route, error) {
	type bucket struct {
		route roadnet.Route
		votes int
	}
	var buckets []bucket
	top := 0
tally:
	for _, r := range routes {
		if len(r.Nodes) == 0 {
			continue
		}
		for i := range buckets {
			if buckets[i].route.Equal(r) {
				buckets[i].votes++
				top = max(top, buckets[i].votes)
				continue tally
			}
		}
		buckets = append(buckets, bucket{route: r, votes: 1})
		top = max(top, 1)
	}
	var best *bucket
	var bestKey string
	for i := range buckets {
		b := &buckets[i]
		if b.votes < top {
			continue
		}
		if best == nil {
			best = b
			continue
		}
		if bestKey == "" {
			bestKey = best.route.String()
		}
		if k := b.route.String(); k < bestKey {
			best, bestKey = b, k
		}
	}
	if best == nil {
		return roadnet.Route{}, routing.ErrNoRoute
	}
	return best.route, nil
}

// rankByID orders drivers by a hash of their ID (splitmix64 finalizer over a
// fixed salt), ties by ID; a poll of k drivers takes the first k. The
// selection is a function of the IDs alone — shuffling the Drivers slice,
// or regenerating the population in a different order, polls the same
// drivers — and it spreads the poll across the whole population instead of
// a fixed prefix.
func rankByID(drivers []*Driver) []*Driver {
	type scored struct {
		h uint64
		d *Driver
	}
	all := make([]scored, len(drivers))
	for i, d := range drivers {
		z := uint64(d.ID) + 0x9E3779B97F4A7C15
		z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
		z = (z ^ (z >> 27)) * 0x94D049BB133111EB
		all[i] = scored{h: z ^ (z >> 31), d: d}
	}
	sort.Slice(all, func(a, b int) bool {
		if all[a].h != all[b].h {
			return all[a].h < all[b].h
		}
		return all[a].d.ID < all[b].d.ID
	})
	out := make([]*Driver, len(all))
	for i := range out {
		out[i] = all[i].d
	}
	return out
}
