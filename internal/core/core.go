// Package core assembles the CrowdPlanner system (paper Fig. 1): the
// traditional route recommendation (TR) module — candidate generation from
// web-service-style routing and popular-route mining, truth reuse, agreement
// checking and confidence scoring — and the crowd route recommendation (CR)
// module — task generation, worker selection, simulated crowd answering with
// early stop, rewarding, and truth write-back.
package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"

	"crowdplanner/internal/calibrate"
	"crowdplanner/internal/crowd"
	"crowdplanner/internal/landmark"
	"crowdplanner/internal/popular"
	"crowdplanner/internal/roadnet"
	"crowdplanner/internal/routecache"
	"crowdplanner/internal/routing"
	"crowdplanner/internal/store"
	"crowdplanner/internal/task"
	"crowdplanner/internal/traj"
	"crowdplanner/internal/truth"
	"crowdplanner/internal/worker"
)

// Stage identifies which component resolved a request.
type Stage int

// Resolution stages in the order the control logic tries them.
const (
	// StageReuse: an exact truth hit answered the request (reuse truth).
	StageReuse Stage = iota
	// StageAgreement: the candidate routes agreed with each other strongly
	// enough that no human was needed.
	StageAgreement
	// StageConfidence: verified truths scored one candidate above η.
	StageConfidence
	// StageCrowd: the CR module resolved the request with worker answers.
	StageCrowd
	// StageFallback: the CR module could not run (e.g. no eligible
	// workers); the best-prior candidate was returned.
	StageFallback
)

// String implements fmt.Stringer.
func (s Stage) String() string {
	switch s {
	case StageReuse:
		return "reuse"
	case StageAgreement:
		return "agreement"
	case StageConfidence:
		return "confidence"
	case StageCrowd:
		return "crowd"
	case StageFallback:
		return "fallback"
	default:
		return fmt.Sprintf("Stage(%d)", int(s))
	}
}

// Config collects every knob of the system. Start from DefaultConfig.
type Config struct {
	// EtaConfidence is η: the minimum truth-derived confidence at which the
	// TR module answers without the crowd.
	EtaConfidence float64
	// AgreementSim is the pairwise route similarity above which candidates
	// are said to agree.
	AgreementSim float64
	// ReuseTruth toggles the reuse-truth component (E7 ablation).
	ReuseTruth bool
	// TruthRadius and TruthSlotTol bound which truths count as "near" a
	// request when scoring confidence.
	TruthRadius  float64
	TruthSlotTol int

	// KShortestAlternatives adds the web service's alternative routes
	// (k-shortest by travel time) to the candidate set when positive.
	KShortestAlternatives int

	// RouteCacheCapacity bounds the sharded LRU cache of generated
	// candidate sets, keyed by (from, to, departure slot). Repeat OD pairs
	// within a slot skip graph search and mining entirely; entries are
	// invalidated when a new truth lands for their key. <= 0 disables the
	// cache (every request regenerates candidates from scratch).
	RouteCacheCapacity int

	Calibrate calibrate.Config
	Task      task.Config

	Familiarity worker.FamiliarityConfig
	UsePMF      bool
	PMF         worker.PMFConfig
	Select      worker.SelectConfig

	// WorkersPerTask is k for top-k eligible selection.
	WorkersPerTask int
	// EarlyStop is the per-question posterior threshold (>0.5 enables).
	EarlyStop float64
	Answers   crowd.AnswerModel
	Rewards   crowd.RewardConfig

	// OracleSample bounds how many drivers the population oracle polls.
	OracleSample int

	// Store is the storage backend for the system's mutable state: verified
	// truths, worker rewards/answer histories, and pending async crowd
	// tasks. Commits are logged to it as they happen. nil keeps the
	// pre-storage-layer behaviour — state lives (and dies) with the
	// process; commits are counted but not retained (store.Discard). With a
	// durable backend (diskstore), call LoadFromStore after New and before
	// serving to replay persisted state.
	Store store.Store

	// Breaker is the circuit breaker over store appends: K consecutive
	// failures flip the system to a degraded read-only mode instead of
	// silently dropping every commit (see breaker.go). Threshold <= 0
	// disables it.
	Breaker BreakerConfig

	Seed int64
}

// DefaultConfig returns the configuration used throughout the experiments.
func DefaultConfig() Config {
	return Config{
		EtaConfidence:         0.75,
		AgreementSim:          0.8,
		ReuseTruth:            true,
		TruthRadius:           600,
		TruthSlotTol:          1,
		KShortestAlternatives: 2,
		RouteCacheCapacity:    4096,
		Calibrate:             calibrate.DefaultConfig(),
		Task:                  task.DefaultConfig(),
		Familiarity:           worker.DefaultFamiliarityConfig(),
		UsePMF:                true,
		PMF:                   worker.DefaultPMFConfig(),
		Select:                worker.DefaultSelectConfig(),
		WorkersPerTask:        9,
		EarlyStop:             0.95,
		Answers:               crowd.DefaultAnswerModel(),
		Rewards:               crowd.DefaultRewardConfig(),
		OracleSample:          60,
		Breaker:               DefaultBreakerConfig(),
		Seed:                  1,
	}
}

// Oracle supplies the (simulated) true best route — the stand-in for the
// collective knowledge in workers' heads. See PopulationOracle.
type Oracle interface {
	BestRoute(from, to roadnet.NodeID, t routing.SimTime) (roadnet.Route, error)
}

// PopulationOracle answers with the population-preferred route of the
// driver simulation.
type PopulationOracle struct {
	Data   *traj.Dataset
	Sample int
}

// BestRoute implements Oracle.
func (o *PopulationOracle) BestRoute(from, to roadnet.NodeID, t routing.SimTime) (roadnet.Route, error) {
	return o.Data.GroundTruth(from, to, t, o.Sample)
}

// System is a fully assembled CrowdPlanner instance. It is safe for
// concurrent use: requests may be served from many goroutines at once.
//
// Shared state is guarded by two locks with fine-grained scopes (DESIGN.md
// §6). mu covers task bookkeeping (ID allocation, the pending-task map) and
// the familiarity-matrix pointers; poolMu covers the mutable worker state
// (Outstanding counters, rewards, answer history). Neither lock is ever
// held across a crowd simulation, a graph search, or an oracle call. The
// lock order is mu before poolMu; randomness is per task (see taskSeed), so
// concurrent tasks never contend on — or perturb — a shared RNG stream.
type System struct {
	cfg       Config
	graph     *roadnet.Graph
	landmarks *landmark.Set
	data      *traj.Dataset
	truth     *truth.DB
	pool      *worker.Pool
	oracle    Oracle
	routes    *routecache.Cache[[]task.Candidate] // generated candidates by OD+slot

	// ALT landmark tables for the two web-service cost models, built once in
	// New. Immutable after construction, like the graph they index.
	prepDist *routing.Preprocessed
	prepTime *routing.Preprocessed

	mu sync.Mutex
	//cplint:guardedby mu
	mstar *worker.Matrix // system's estimate (PMF-densified, accumulated)
	//cplint:guardedby mu
	mtrue *worker.Matrix // workers' actual knowledge (no PMF inference)
	//cplint:guardedby mu
	nextTaskID int64
	//cplint:guardedby mu
	pending map[int64]*PendingTask // open async crowd tasks awaiting answers
	//cplint:guardedby mu
	closed closedTasks // the most recently closed ones, as compact records

	poolMu   sync.RWMutex        // guards Outstanding/Reward/History on pool workers
	reliance *reliabilityTracker // per-source precision (future work §VI)

	// backend receives every state commit (truths, worker events, task
	// lifecycle) as it happens; see internal/store and persist.go for the
	// locking contract (appends never run under mu/poolMu). appendErrs
	// counts failed appends — the serving path never blocks on a sick
	// backend; the count is surfaced on /v1/health. breaker is the circuit
	// breaker the backend is wrapped in (nil when disabled); Degraded()
	// reports its state to the server layer.
	backend    store.Store
	breaker    *breakerStore
	appendErrs atomic.Uint64

	// Singleflight over route-cache misses: N concurrent requests for one
	// cold OD+slot cost one candidate generation (fan-out of graph searches
	// and miners); followers wait for the leader and share the result.
	flightMu sync.Mutex
	//cplint:guardedby flightMu
	flights   map[routecache.Key]*flight
	coalesced atomic.Uint64 // requests that waited on another's generation
}

// New assembles a system over the given substrates. The landmark set must
// already carry significances (run InferSignificance first). When the config
// carries a durable storage backend, call LoadFromStore before serving to
// replay persisted state.
func New(cfg Config, g *roadnet.Graph, lms *landmark.Set, data *traj.Dataset, pool *worker.Pool, oracle Oracle) *System {
	backend := cfg.Store
	if backend == nil {
		// No persistence configured: count commits for observability but
		// retain nothing (an unconsumed in-memory log would grow without
		// bound in long-lived servers and benchmarks).
		backend = store.Discard()
	}
	var breaker *breakerStore
	if cfg.Breaker.Threshold > 0 {
		breaker = newBreakerStore(backend, cfg.Breaker)
		backend = breaker
	}
	s := &System{
		cfg:       cfg,
		graph:     g,
		landmarks: lms,
		data:      data,
		truth:     truth.NewDB(g, cfg.TruthRadius),
		pool:      pool,
		oracle:    oracle,
		routes:    routecache.New[[]task.Candidate](cfg.RouteCacheCapacity),
		reliance:  newReliabilityTracker(),
		backend:   backend,
		breaker:   breaker,
		flights:   make(map[routecache.Key]*flight),
	}
	// ALT landmark tables: one preprocessing pass per web-service cost
	// model, shared by every proposal search this System runs. Every
	// proposal search then runs with landmark lower bounds: same routes as
	// Dijkstra, fewer settled nodes. Preprocess clamps the landmark count to
	// the node count, so tiny graphs build tiny tables.
	s.prepDist = routing.Preprocess(g, routing.DistanceCost, routing.DefaultPrepConfig())
	s.prepTime = routing.Preprocess(g, routing.TravelTimeCost, routing.DefaultPrepConfig())
	s.RefreshFamiliarity()
	return s
}

// taskSeed derives a per-task RNG seed from the configured seed and the
// task ID (splitmix64 finalizer). Each crowd task draws from its own
// deterministic stream: single-threaded runs reproduce exactly for a fixed
// Config.Seed, and concurrent tasks stay independent of scheduling order.
func taskSeed(seed, id int64) int64 {
	z := uint64(seed) + uint64(id)*0x9E3779B97F4A7C15
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return int64(z ^ (z >> 31))
}

// Graph exposes the road network.
func (s *System) Graph() *roadnet.Graph { return s.graph }

// Landmarks exposes the landmark set.
func (s *System) Landmarks() *landmark.Set { return s.landmarks }

// TruthDB exposes the verified-truth store.
func (s *System) TruthDB() *truth.DB { return s.truth }

// Pool exposes the worker pool.
func (s *System) Pool() *worker.Pool { return s.pool }

// CorpusSize returns the current trajectory-corpus size (generated plus
// ingested trips). Surfaced on GET /v1/health.
func (s *System) CorpusSize() int { return s.data.NumTrips() }

// Config returns the active configuration.
func (s *System) Config() Config { return s.cfg }

// RefreshFamiliarity rebuilds both familiarity matrices from current
// profiles and histories: the workers' actual knowledge M_true (raw scores,
// spatially accumulated) and the system's estimate M* (raw scores, PMF
// densified, then accumulated). Selection uses the estimate; the simulated
// crowd answers according to actual knowledge — keeping the two distinct is
// what lets the experiments measure whether PMF-based selection finds
// genuinely knowledgeable workers. Call after batches of crowd work to fold
// new history into selection.
//
// M* is frozen before it is published: its per-landmark worker rankings,
// which every selection reads, are built here (a few milliseconds on the
// default world) rather than by the first request that selects workers.
func (s *System) RefreshFamiliarity() {
	s.poolMu.RLock()
	m := worker.BuildMatrix(s.pool, s.landmarks, s.cfg.Familiarity)
	s.poolMu.RUnlock()
	mtrue := worker.Accumulate(m, s.landmarks, s.cfg.Familiarity)
	est := m
	if s.cfg.UsePMF {
		model := worker.FitPMF(m, s.cfg.PMF)
		est = worker.Densify(m, model, 0.05)
	}
	mstar := worker.Accumulate(est, s.landmarks, s.cfg.Familiarity)
	mstar.Freeze()
	s.mu.Lock()
	s.mstar = mstar
	s.mtrue = mtrue
	s.mu.Unlock()
}

// Familiarity returns the system's estimated accumulated familiarity matrix
// M* (the one worker selection consults).
func (s *System) Familiarity() *worker.Matrix {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.mstar
}

// TrueFamiliarity returns the workers' actual accumulated knowledge — the
// signal the simulated crowd answers with. A real deployment has no such
// matrix; it exists because the crowd is simulated (see DESIGN.md).
func (s *System) TrueFamiliarity() *worker.Matrix {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.mtrue
}

// Request is a route recommendation request.
type Request struct {
	From, To    roadnet.NodeID
	Depart      routing.SimTime
	DeadlineMin float64 // response deadline for crowd tasks; 0 = config default
}

// Response reports how a request was answered.
type Response struct {
	Route      roadnet.Route
	Stage      Stage
	Confidence float64
	Candidates []task.Candidate
	Task       *task.Task     // non-nil for StageCrowd
	Run        *crowd.TaskRun // non-nil for StageCrowd
	Workers    []worker.Ranked
}

// Errors returned by Recommend.
var (
	ErrBadRequest   = errors.New("core: invalid request")
	ErrNoCandidates = errors.New("core: no provider produced a candidate route")
)

// Recommend processes one request through the full Fig. 1 workflow,
// simulating the crowd synchronously when it is needed. For the open-loop
// protocol where real clients submit answers over time, see RecommendAsync.
//
// The context bounds the whole pipeline: cancellation (a disconnected HTTP
// client) or a deadline is observed before candidate fan-out, inside the
// fan-out, around the oracle call, and between crowd questions, and the
// context's error is returned. Shared state is never left inconsistent by a
// cancellation: claimed workers are released and no partial truth is stored.
func (s *System) Recommend(ctx context.Context, req Request) (*Response, error) {
	// Stages 1–4: reuse truth, candidate generation, agreement check,
	// confidence scoring.
	resp, cands, err := s.resolveTraditional(ctx, req)
	if err != nil {
		return nil, err
	}
	if resp != nil {
		return resp, nil
	}
	// Stage 5: crowd route recommendation.
	return s.crowdResolve(ctx, req, cands)
}

// Candidates exposes the route generation component: the calibrated,
// deduplicated candidate set for a request. Used by the experiment harness
// to study the CR module in isolation. The only error is the context's, when
// it is cancelled before or during generation.
func (s *System) Candidates(ctx context.Context, req Request) ([]task.Candidate, error) {
	return s.generateCandidates(ctx, req)
}

// cacheKey quantizes a request to its route-cache key, using the truth
// database's slot granularity so cache invalidation lines up with truth
// tags.
func (s *System) cacheKey(req Request) routecache.Key {
	return routecache.Key{
		From: int64(req.From),
		To:   int64(req.To),
		Slot: req.Depart.Slot(truth.Slots),
	}
}

// flight is one in-progress candidate generation other requests for the
// same key can wait on. The leader fills cands/err, then closes done.
type flight struct {
	done  chan struct{}
	cands []task.Candidate
	err   error
}

// generateCandidates returns the caller's own copy of the calibrated
// candidate set for a request. Callers fill in priors; the set itself is
// shared by the route cache and the request's flight, which never modify it.
func (s *System) generateCandidates(ctx context.Context, req Request) ([]task.Candidate, error) {
	shared, err := s.sharedCandidates(ctx, req)
	if err != nil {
		return nil, err
	}
	out := make([]task.Candidate, len(shared))
	copy(out, shared)
	return out, nil
}

// sharedCandidates returns the candidate set from the route cache when
// warm, otherwise via computeCandidates behind a per-key singleflight — N
// concurrent requests for one cold OD+slot cost one fan-out of graph
// searches and miners; the followers wait for the leader and share its
// result (counted in coalesced). A follower whose leader failed (typically
// the leader's own context was cancelled) retries from the top: re-check
// the cache, then race to become the next leader.
func (s *System) sharedCandidates(ctx context.Context, req Request) ([]task.Candidate, error) {
	key := s.cacheKey(req)
	for {
		if cached, ok := s.routes.Get(key); ok {
			return cached, nil
		}
		if err := ctx.Err(); err != nil {
			// Abort before any graph search or mining runs.
			return nil, err
		}

		// One critical section: join the key's flight, or start it.
		s.flightMu.Lock()
		f, follower := s.flights[key]
		if !follower {
			f = &flight{done: make(chan struct{})}
			s.flights[key] = f
		}
		s.flightMu.Unlock()

		if follower {
			s.coalesced.Add(1)
			select {
			case <-f.done:
			case <-ctx.Done():
				return nil, ctx.Err()
			}
			if f.err != nil {
				continue // leader failed; retry as a potential leader
			}
			return f.cands, nil
		}

		f.cands, f.err = s.computeCandidates(ctx, req, key)
		s.flightMu.Lock()
		delete(s.flights, key)
		s.flightMu.Unlock()
		close(f.done)
		return f.cands, f.err
	}
}

// CoalescedRequests counts requests that waited on another request's
// in-flight candidate generation instead of starting their own (the
// singleflight counter surfaced on GET /v1/health).
func (s *System) CoalescedRequests() uint64 { return s.coalesced.Load() }

// Provider is one entry of the candidate provider table: a route provider of
// the route generation component (paper Fig. 1).
type Provider struct {
	// Name is the source label of the provider's own route.
	Name string
	// Propose runs the provider for req over s's substrates: the provider's
	// own route first, its alternatives after it.
	Propose func(s *System, req Request) ([]roadnet.Route, error)
	alt     string // the i-th alternative's source label is alt followed by i
}

// providers is the candidate provider table in merge order: the web
// service's shortest and fastest routes, then the popular-route miners. The
// web-service searches are goal-directed: the landmark lower bounds are
// admissible, so each returns the same route as plain Dijkstra while
// settling a fraction of the graph. ws-fastest is the first route of one
// Yen call (KShortest's first route is AStar's), and the routes after it
// are the web service's alternatives, ws-alt1, ws-alt2, ….
var providers = [...]Provider{
	{Name: "ws-shortest", Propose: func(s *System, req Request) ([]roadnet.Route, error) {
		return single(s.prepDist.AStar(req.From, req.To, req.Depart))
	}},
	{Name: "ws-fastest", alt: "ws-alt", Propose: func(s *System, req Request) ([]roadnet.Route, error) {
		rs, _, err := s.prepTime.KShortest(req.From, req.To, max(s.cfg.KShortestAlternatives, 0)+1, req.Depart)
		return rs, err
	}},
	mined(popular.NewMPR()),
	mined(popular.NewLDR()),
	mined(popular.NewMFP()),
}

// mined is the table entry of a popular-route miner over the system's
// trajectory corpus.
func mined(m popular.Miner) Provider {
	return Provider{Name: m.Name(), Propose: func(s *System, req Request) ([]roadnet.Route, error) {
		return single(m.Mine(s.data, req.From, req.To, req.Depart))
	}}
}

// single is the proposal of a provider that returns one route.
func single(r roadnet.Route, _ float64, err error) ([]roadnet.Route, error) {
	if err != nil {
		return nil, err
	}
	return []roadnet.Route{r}, nil
}

// Providers returns the candidate provider table in merge order, as the
// caller's copy.
func Providers() []Provider { return slices.Clone(providers[:]) }

// computeCandidates collects the routes of every provider, calibrates them
// to landmark-based form, and dedups identical node sequences: a route
// proposed twice keeps its first position and lists every proposer in
// table order. Generated sets are cached by (from, to, depart-slot) so
// repeat OD pairs skip graph search entirely.
func (s *System) computeCandidates(ctx context.Context, req Request, key routecache.Key) ([]task.Candidate, error) {
	proposals := s.proposeRoutes(ctx, req)
	if err := ctx.Err(); err != nil {
		// Cancelled mid-fan-out: the proposal set may be partial, so don't
		// calibrate or cache it.
		return nil, err
	}

	var cands []task.Candidate
	for pi, routes := range proposals {
		for i, r := range routes {
			src := providers[pi].Name
			if i > 0 {
				src = providers[pi].alt + strconv.Itoa(i)
			}
			if j := slices.IndexFunc(cands, func(c task.Candidate) bool { return c.Route.Equal(r) }); j >= 0 {
				cands[j].Source += "+" + src
				continue
			}
			cands = append(cands, task.Candidate{
				Source: src,
				Route:  r,
				LRoute: calibrate.Calibrate(s.graph, s.landmarks, r, s.cfg.Calibrate),
			})
		}
	}
	if len(cands) > 0 {
		s.routes.Put(key, cands)
	}
	return cands, nil
}

// proposeRoutes runs the provider table concurrently, one goroutine per
// entry, and returns each provider's routes at its table index, so the merge
// order is independent of goroutine scheduling. Every provider is a pure
// read over immutable substrates, so no locking is needed. Each goroutine
// re-checks the context before it starts, so a cancelled request skips every
// provider not yet scheduled; the caller detects the cancellation and
// discards the partial result.
func (s *System) proposeRoutes(ctx context.Context, req Request) [][]roadnet.Route {
	out := make([][]roadnet.Route, len(providers))
	var wg sync.WaitGroup
	for i, p := range providers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if ctx.Err() != nil {
				return
			}
			if rs, err := p.Propose(s, req); err == nil {
				out[i] = rs
			}
		}()
	}
	wg.Wait()
	return out
}

// RouteCacheStats reports the candidate-cache counters (all zero when the
// cache is disabled). Surfaced on GET /v1/health.
func (s *System) RouteCacheStats() routecache.Stats { return s.routes.Stats() }

// RoutingStats reports the search engine's counters (searches run, heap
// pushes, pooled-workspace hits). The counters are process-wide — the
// routing engine's workspace pool is shared by every System in the process —
// and are surfaced under the `routing` section of GET /v1/health.
func (s *System) RoutingStats() routing.Stats { return routing.CounterSnapshot() }

// claimWorkers increments Outstanding for the selected workers, re-checking
// the quota condition under the write lock. TopKEligible checks the quota
// under a read lock, so two concurrent requests can both select a worker
// with one slot left; re-checking at claim time keeps η_#q a hard bound.
// The returned slice keeps only the workers actually claimed (selection
// order preserved); the caller owns the matching decrements.
func (s *System) claimWorkers(assigned []worker.Ranked, cfg worker.SelectConfig) []worker.Ranked {
	s.poolMu.Lock()
	defer s.poolMu.Unlock()
	kept := assigned[:0]
	for _, r := range assigned {
		if cfg.MaxOutstanding > 0 && r.Worker.Outstanding >= cfg.MaxOutstanding {
			continue // lost the slot to a concurrent assignment
		}
		r.Worker.Outstanding++
		kept = append(kept, r)
	}
	return kept
}

// TopWorkerInfo is a consistent snapshot of one ranked worker: the mutable
// fields are copied out while the pool lock is held, so callers can read
// them without racing concurrent reward write-backs.
type TopWorkerInfo struct {
	ID     worker.ID
	Score  float64
	Reward float64
}

// TopWorkers ranks the k most eligible workers for the given landmarks
// under the system's current familiarity estimate, holding the pool lock so
// the selection — and the returned reward balances — are consistent with
// concurrent reward write-backs.
func (s *System) TopWorkers(lids []landmark.ID, k int, cfg worker.SelectConfig) []TopWorkerInfo {
	mstar := s.Familiarity()
	s.poolMu.RLock()
	defer s.poolMu.RUnlock()
	ranked := worker.TopKEligible(s.pool, mstar, lids, k, cfg)
	out := make([]TopWorkerInfo, 0, len(ranked))
	for _, r := range ranked {
		out = append(out, TopWorkerInfo{ID: r.Worker.ID, Score: r.Score, Reward: r.Worker.Reward})
	}
	return out
}

// agreement reports whether all candidates pairwise agree above the
// configured similarity; if so it returns the medoid (the candidate with
// the highest mean similarity to the others). Each candidate's edge set is
// built once, on first use, and each unordered pair is compared once; the
// first pair below AgreementSim (or any pair, when it is NaN) ends the
// check. The means are then summed from the symmetric matrix in the same
// order as one row at a time.
func (s *System) agreement(cands []task.Candidate) (task.Candidate, float64, bool) {
	n := len(cands)
	if n == 0 {
		// Callers filter empty sets out (ErrNoCandidates), but guard the
		// n-1 division below against future call sites.
		return task.Candidate{}, 0, false
	}
	if n == 1 {
		return cands[0], 1, true
	}
	keys := make([]roadnet.EdgeKeys, n)
	keys[0] = cands[0].Route.EdgeKeys()
	sims := make([]float64, n*n)
	for i := range n {
		for j := i + 1; j < n; j++ {
			if i == 0 {
				keys[j] = cands[j].Route.EdgeKeys()
			}
			sim := keys[i].Similarity(keys[j])
			if !(sim >= s.cfg.AgreementSim) {
				return task.Candidate{}, 0, false
			}
			sims[i*n+j], sims[j*n+i] = sim, sim
		}
	}
	bestIdx, bestMean := -1, -1.0
	for i := range n {
		var mean float64
		for j := range n {
			if i != j {
				mean += sims[i*n+j]
			}
		}
		mean /= float64(n - 1)
		if mean > bestMean {
			bestMean, bestIdx = mean, i
		}
	}
	return cands[bestIdx], bestMean, true
}

// crowdTask is a generated crowd task with its workers claimed: what
// crowdResolve simulates and RecommendAsync publishes.
type crowdTask struct {
	tk       *task.Task // tk.Candidates is the merged candidate set
	assigned []worker.Ranked
	mtrue    *worker.Matrix // workers' actual knowledge when the ID was allocated
}

// prepareCrowdTask runs the CR module's steps before the first question:
// merge indistinguishable candidates, allocate a task ID, generate the task,
// select workers and claim them. When the crowd cannot be asked (the
// candidates merge into one, or no worker is selected or claimed) it stores
// the low-confidence fallback truth and returns a StageFallback response
// instead. Workers are claimed before any resolution path, so on success the
// caller owns their release (releaseWorkers, or finishPending for a
// published task).
func (s *System) prepareCrowdTask(req Request, cands []task.Candidate) (*crowdTask, *Response, error) {
	merged := task.MergeIndistinguishable(cands)
	if len(merged) == 1 {
		// All candidates look identical to humans; no task needed.
		s.logTruth(s.storeTruth(req, merged[0].Route, 0.5, false))
		return nil, &Response{Route: merged[0].Route, Stage: StageFallback, Confidence: 0.5, Candidates: cands}, nil
	}

	s.mu.Lock()
	s.nextTaskID++
	id := s.nextTaskID
	mstar := s.mstar
	mtrue := s.mtrue
	s.mu.Unlock()

	tk, err := task.Generate(id, s.landmarks, merged, s.cfg.Task)
	if err != nil {
		return nil, nil, fmt.Errorf("core: generating task: %w", err)
	}

	selCfg := s.cfg.Select
	if req.DeadlineMin > 0 {
		selCfg.DeadlineMinutes = req.DeadlineMin
	}
	s.poolMu.RLock()
	assigned := worker.TopKEligible(s.pool, mstar, tk.Questions, s.cfg.WorkersPerTask, selCfg)
	s.poolMu.RUnlock()
	// Empty when no worker is eligible, or every selected one hit quota
	// between selection and claim.
	assigned = s.claimWorkers(assigned, selCfg)
	if len(assigned) == 0 {
		best := bestByConsensus(merged)
		s.logTruth(s.storeTruth(req, best.Route, 0.5, false))
		return nil, &Response{Route: best.Route, Stage: StageFallback, Confidence: 0.5, Candidates: cands, Task: tk}, nil
	}
	return &crowdTask{tk: tk, assigned: assigned, mtrue: mtrue}, nil, nil
}

// releaseWorkers undoes claimWorkers.
func (s *System) releaseWorkers(assigned []worker.Ranked) {
	s.poolMu.Lock()
	for _, r := range assigned {
		r.Worker.Outstanding--
	}
	s.poolMu.Unlock()
}

// crowdResolve runs the CR module: task generation, worker selection,
// simulated answering with early stop, rewards, and truth write-back.
// Cancellation is observed around the oracle call and between questions of
// the crowd simulation; claimed workers are always released on the way out.
func (s *System) crowdResolve(ctx context.Context, req Request, cands []task.Candidate) (*Response, error) {
	ct, resp, err := s.prepareCrowdTask(req, cands)
	if ct == nil {
		return resp, err
	}
	defer s.releaseWorkers(ct.assigned)

	if err := ctx.Err(); err != nil {
		return nil, err // deferred claim release runs
	}

	// The simulated truth: the population-preferred route's landmarks.
	truthRoute, err := s.oracle.BestRoute(req.From, req.To, req.Depart)
	if err != nil {
		return nil, fmt.Errorf("core: oracle: %w", err)
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	truthLR := calibrate.Calibrate(s.graph, s.landmarks, truthRoute, s.cfg.Calibrate)
	truthSet := truthLR.IDSet()

	// Workers answer according to their actual knowledge, not the system's
	// estimate of it.
	fam := func(workerIdx int, l landmark.ID) float64 {
		if v, ok := ct.mtrue.Get(workerIdx, int(l)); ok {
			return v
		}
		return 0
	}
	// The simulation runs lock-free on a per-task RNG stream; only the
	// reward write-back after each question briefly takes the pool lock.
	rng := rand.New(rand.NewSource(taskSeed(s.cfg.Seed, ct.tk.ID)))
	run, err := crowd.RunTaskCtx(ctx, ct.tk, ct.assigned, truthSet, fam, s.cfg.Answers, s.cfg.EarlyStop, rng,
		func(l landmark.ID, answers []crowd.Answer, used int) {
			s.poolMu.Lock()
			events := crowd.Reward(s.pool, l, answers, used, s.cfg.Rewards)
			s.poolMu.Unlock()
			s.logWorkerEvents(events)
		})
	if err != nil {
		// Cancelled mid-task: rewards for completed questions stand, but no
		// truth is stored and no winner is declared.
		return nil, err
	}

	winner := ct.tk.Candidates[run.Resolved]
	s.logTruth(s.storeTruth(req, winner.Route, run.MinConfidence, true))
	s.reliance.record(ct.tk.Candidates, winner.Route)
	return &Response{
		Route: winner.Route, Stage: StageCrowd, Confidence: run.MinConfidence,
		Candidates: cands, Task: ct.tk, Run: &run, Workers: ct.assigned,
	}, nil
}

// bestByConsensus is the TR module's best guess when the crowd cannot be
// asked: the candidate maximizing truth-derived prior plus mean similarity
// to the other candidates (the providers' consensus medoid).
func bestByConsensus(cands []task.Candidate) task.Candidate {
	if len(cands) == 0 {
		// Defensive: callers guarantee a non-empty set, but an empty one
		// must not divide by len(cands)-1 or index cands[0].
		return task.Candidate{}
	}
	if len(cands) == 1 {
		return cands[0]
	}
	best, bestScore := 0, math.Inf(-1)
	for i := range cands {
		var mean float64
		for j := range cands {
			if i != j {
				mean += cands[i].Route.Similarity(cands[j].Route)
			}
		}
		mean /= float64(len(cands) - 1)
		if score := cands[i].Prior + mean; score > bestScore {
			best, bestScore = i, score
		}
	}
	return cands[best]
}

// storeTruth commits a verified truth to the in-memory database and returns
// the stored entry so the caller can log it to the storage backend —
// immediately when no core lock is held (logTruth), or via a walBatch
// flushed after release (see persist.go for the locking contract).
func (s *System) storeTruth(req Request, route roadnet.Route, conf float64, byCrowd bool) truth.Entry {
	if conf <= 0 {
		conf = 0.5
	}
	if conf > 1 {
		conf = 1
	}
	e := truth.Entry{
		From: req.From, To: req.To,
		Slot:       req.Depart.Slot(truth.Slots),
		Route:      route,
		Confidence: conf,
		Crowd:      byCrowd,
		StoredAt:   req.Depart,
	}
	s.truth.Store(e)
	// A crowd-verified truth is new external knowledge about this OD+slot:
	// drop the cached candidate sets so the next evaluation rebuilds from
	// scratch. The invalidation covers every slot within TruthSlotTol of the
	// commit — truth.DB.Near honors that tolerance when scoring candidates,
	// so a cached set for an adjacent slot is just as stale as the exact
	// one. Truths *derived* from the candidates themselves (agreement/
	// confidence stages) don't invalidate — candidate generation is
	// independent of the truth store, and evicting on every derived store
	// would defeat the cache exactly in re-evaluation mode (ReuseTruth
	// off), where it absorbs the repeat graph searches.
	if byCrowd {
		key := s.cacheKey(req)
		for _, sl := range truth.SlotWindow(key.Slot, s.cfg.TruthSlotTol) {
			s.routes.Invalidate(routecache.Key{From: key.From, To: key.To, Slot: sl})
		}
	}
	return e
}
