package traj

import (
	"math"
	"math/rand"
	"runtime"
	"sort"
	"sync"

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
// adds to the corpus and keeps the mining indexes (see index.go) current,
// concurrently with miner queries. Construct with NewDataset (or
// GenerateDataset), which builds the indexes.
//
// Trips is the corpus the dataset was constructed with; ingested trips live
// only in the index, and concurrent readers go through NumTrips,
// IngestedStream and the index query methods, which take the dataset's
// lock.
type Dataset struct {
	Graph   *roadnet.Graph
	Drivers []*Driver
	Trips   []Trajectory

	// ODShortfall counts requested ODs that could not be materialized under
	// the MinODDistM constraint (see RandomODs); the trip budget is
	// redistributed over the realized ODs, so the corpus size still matches
	// NumODs*TripsPerOD.
	ODShortfall int

	// ranked is Drivers ordered by rankByID, weights the per-edge bound
	// weights of the GroundTruth poll, and canon each edge's canonical edge
	// (see CanonicalEdge); all are fixed at construction.
	ranked  []*Driver
	weights boundWeights
	canon   []roadnet.EdgeID

	mu sync.RWMutex
	//cplint:guardedby mu
	idx *miningIndex
	//cplint:guardedby mu
	base int // trips [0, base) of the index are the constructed corpus, the rest ingested
	// Ingestion-stream bookkeeping: seqs numbers the ingested trips in
	// order, and nextSeq is the number the next ingested trip gets. Seqs are
	// NOT derivable from position — a crash can lose the tail of the
	// persisted stream (an absorbed append failure), after which replay
	// leaves gaps that live ingestion must not re-fill, or a stale Seq would
	// collide with a retained record and be dropped by the replay dedupe.
	//cplint:guardedby mu
	seqs []seqRun
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
// Every hop of every route must be an edge of g — map-matched and
// generated routes are — or NewDataset panics: the footmark counts are
// per edge and cannot count a hop that is not one.
func NewDataset(g *roadnet.Graph, drivers []*Driver, trips []Trajectory) *Dataset {
	ds := &Dataset{
		Graph: g, Drivers: drivers, Trips: trips,
		ranked: rankByID(drivers), weights: newBoundWeights(g), canon: canonicalEdges(g),
	}
	ds.mu.Lock()
	defer ds.mu.Unlock()
	ds.base = len(trips)
	ds.idx = newMiningIndex(g)
	ds.idx.add(g, trips)
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
// The poll stops once its verdict is fixed (see poll): the route returned
// is always the mode of the full sample, with the same tie-break.
func (ds *Dataset) GroundTruth(from, to roadnet.NodeID, t routing.SimTime, sampleDrivers int) (roadnet.Route, error) {
	r, _, err := ds.poll(from, to, t, sampleDrivers)
	return r, err
}

// pollStats is the work one poll did: decided is the length of the tallied
// prefix of the sample at which the verdict was fixed (the sample size when
// it never was), searched the number of drivers whose route was searched.
type pollStats struct{ decided, searched int }

// poll is GroundTruth reporting its work.
//
// Stopping rule. Votes are tallied in sample order. After a prefix of p of
// the N sampled drivers, the poll is decided when the leader's votes minus
// the runner-up's exceed N − p, the drivers not yet tallied (a driver with
// no route is tallied with no vote). Then even if every remaining driver
// voted for the runner-up it would end below the leader, and any other
// route further below, so the full poll's mode is the leader and its
// smallest-Route.String() tie-break cannot fire. Once decided, the poll
// stays decided with the same leader: each further driver lowers the margin
// by at most one while the drivers left drop by one. So p*, the first
// decided prefix, fixes the verdict. A poll never decided runs to N and
// takes the mode with its tie-break.
//
// Schedule. The tasks are the three destination sweeps (the bound every
// driver's search shares, see destBound), then the drivers in sample
// order, claimed in that order by min(GOMAXPROCS, N) workers, the caller
// among them. Driver i is searched only once every sweep is done and the
// prefix [0, i−W+1) is tallied and undecided, with the window W = 2 ×
// workers. The searched drivers are therefore exactly [0, min(N,
// p*+W−1)), however the workers are scheduled: the routing work of a poll
// is a function of (OD, t, sample, GOMAXPROCS). Drivers still in flight
// when the verdict is fixed finish before poll returns.
func (ds *Dataset) poll(from, to roadnet.NodeID, t routing.SimTime, sampleDrivers int) (roadnet.Route, pollStats, error) {
	drivers := ds.ranked
	if sampleDrivers > 0 && sampleDrivers < len(drivers) {
		drivers = drivers[:sampleDrivers]
	}
	g := ds.Graph
	if to < 0 || int(to) >= g.NumNodes() || len(drivers) == 0 {
		return roadnet.Route{}, pollStats{}, routing.ErrNoRoute
	}
	workers := min(runtime.GOMAXPROCS(0), len(drivers))
	p := &pollState{
		ds: ds, from: from, to: to, t: t, drivers: drivers, window: 2 * workers,
		routes: make([]roadnet.Route, len(drivers)), ready: make([]bool, len(drivers)),
		stop: len(drivers), decided: len(drivers),
	}
	p.cond.L = &p.mu
	for i := range p.bound {
		p.bound[i] = make([]float64, g.NumNodes())
	}
	var wg sync.WaitGroup
	for range workers - 1 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			p.work()
		}()
	}
	p.work()
	wg.Wait()
	// Every worker has returned, so the poll's fields are settled.
	p.mu.Lock()
	defer p.mu.Unlock()
	st := pollStats{decided: p.decided, searched: p.stop}
	r, err := p.votes.mode()
	return r, st, err
}

// pollState is one poll's shared state; see poll for the schedule.
type pollState struct {
	ds      *Dataset
	from    roadnet.NodeID
	to      roadnet.NodeID
	t       routing.SimTime
	drivers []*Driver
	window  int
	bound   destBound // filled by the sweep tasks; read by drivers once swept == len(bound)

	mu   sync.Mutex
	cond sync.Cond // broadcast when the sweeps finish, the frontier advances or the poll is decided
	//cplint:guardedby mu
	next int // the next task: k < len(bound) is sweep k, else driver k − len(bound)
	//cplint:guardedby mu
	swept int
	//cplint:guardedby mu
	routes []roadnet.Route // routes[i] is driver i's route, empty for no route
	//cplint:guardedby mu
	ready []bool
	//cplint:guardedby mu
	frontier int // drivers [0, frontier) are tallied
	//cplint:guardedby mu
	stop int // drivers [0, stop) are searched: N until decided, then min(N, p*+W−1)
	//cplint:guardedby mu
	decided int // p*, N until decided
	//cplint:guardedby mu
	votes tally
}

// work claims and runs tasks until none is left to claim.
func (p *pollState) work() {
	g := p.ds.Graph
	var h []float64 // the driver searches' heuristic scratch
	nb := len(p.bound)
	p.mu.Lock()
	for {
		if k := p.next; k < nb {
			p.next++
			p.mu.Unlock()
			// to is a node (checked by poll) and the slices are graph-sized,
			// so the sweep cannot fail.
			_ = routing.DistancesTo(g, p.ds.weights[k], p.to, p.bound[k])
			p.mu.Lock()
			p.swept++
			if p.swept == nb {
				p.cond.Broadcast()
			}
			continue
		}
		i := p.next - nb
		if i >= p.stop {
			break
		}
		if p.swept < nb || i-p.window+1 > p.frontier {
			p.cond.Wait()
			continue
		}
		p.next++
		p.mu.Unlock()
		if h == nil {
			h = make([]float64, g.NumNodes())
		}
		r, err := p.drivers[i].preferredRoute(g, p.from, p.to, p.t, p.bound, h)
		p.mu.Lock()
		if err == nil {
			p.routes[i] = r
		}
		p.ready[i] = true
		if p.advance() {
			p.cond.Broadcast()
		}
	}
	p.mu.Unlock()
}

// advance tallies the drivers ready at the frontier in sample order until
// the poll is decided, reporting whether the frontier moved. Called with mu
// held.
func (p *pollState) advance() bool {
	n := len(p.drivers)
	moved := false
	for p.decided == n && p.frontier < n && p.ready[p.frontier] {
		p.votes.add(p.routes[p.frontier])
		p.frontier++
		moved = true
		if p.votes.margin() > n-p.frontier {
			p.decided = p.frontier
			p.stop = min(n, p.frontier+p.window-1)
		}
	}
	return moved
}

// tally counts votes per distinct route, in first-vote order.
type tally struct {
	buckets []bucket
}

type bucket struct {
	route roadnet.Route
	votes int
}

// add counts one driver's vote; an empty route is no vote.
func (t *tally) add(r roadnet.Route) {
	if len(r.Nodes) == 0 {
		return
	}
	for i := range t.buckets {
		if t.buckets[i].route.Equal(r) {
			t.buckets[i].votes++
			return
		}
	}
	t.buckets = append(t.buckets, bucket{route: r, votes: 1})
}

// margin returns the leader's votes minus the runner-up's (the leader's
// votes when there is one route, 0 when there is none).
func (t *tally) margin() int {
	top, second := 0, 0
	for _, b := range t.buckets {
		if b.votes > top {
			top, second = b.votes, top
		} else if b.votes > second {
			second = b.votes
		}
	}
	return top - second
}

// mode returns the most voted route, ties going to the smallest
// Route.String() (the order the string-keyed tally used to sort its keys
// in); the strings are built only when there is a tie.
func (t *tally) mode() (roadnet.Route, error) {
	var best *bucket
	var bestKey string
	for i := range t.buckets {
		b := &t.buckets[i]
		if best == nil || b.votes > best.votes {
			best, bestKey = b, ""
			continue
		}
		if b.votes < best.votes {
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
