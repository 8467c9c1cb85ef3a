package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"crowdplanner/internal/calibrate"
	"crowdplanner/internal/core"
	"crowdplanner/internal/crowd"
	"crowdplanner/internal/landmark"
	"crowdplanner/internal/popular"
	"crowdplanner/internal/roadnet"
	"crowdplanner/internal/routing"
	"crowdplanner/internal/store"
	"crowdplanner/internal/task"
	"crowdplanner/internal/traj"
	"crowdplanner/internal/worker"
)

// unattributedTolerance bounds core.unattributed_ms on cold-crowd: the
// in-place request time the layer self times leave unexplained, as a share
// of the mean in-place handler time. A traced cold-crowd run fails beyond it.
// Five traced 25-second runs (seeds 1-5) left 0.4-2.2% unattributed; 5% still
// fails a ledger that drops worker selection (about 7%) or the candidate
// fan-out (about 13%). On the self-test's small world the unexplained
// remainder (about 0.05 ms: route-cache and truth write-back, worker claims,
// reply assembly) is a larger share of a 1.8 ms request: six seeds at 100
// traced requests left 2.4-4.6%, so that world is held to 10%.
const (
	unattributedTolerance      = 0.05
	smallUnattributedTolerance = 0.10
)

// span accumulates the time and count of calls into one layer.
type span struct{ ns, calls atomic.Int64 }

func (s *span) add(d time.Duration) {
	s.ns.Add(int64(d))
	s.calls.Add(1)
}

func (s *span) read() (time.Duration, int64) { return time.Duration(s.ns.Load()), s.calls.Load() }

// tracer holds the in-place spans the timing decorators record while on.
type tracer struct {
	on     atomic.Bool
	oracle span
	store  span
}

// timedOracle is the Oracle passed into core.New in a traced run: it times
// every PopulationOracle call inside the real pipeline.
type timedOracle struct {
	inner core.Oracle
	tr    *tracer
}

func (o *timedOracle) BestRoute(from, to roadnet.NodeID, t routing.SimTime) (roadnet.Route, error) {
	if !o.tr.on.Load() {
		return o.inner.BestRoute(from, to, t)
	}
	t0 := time.Now()
	r, err := o.inner.BestRoute(from, to, t)
	o.tr.oracle.add(time.Since(t0))
	return r, err
}

// timedStore is the storage backend passed into core.New in a traced run:
// it times every append on the real backend and forwards everything else.
type timedStore struct {
	store.Store
	tr *tracer
}

func (s *timedStore) timed(f func() error) error {
	if !s.tr.on.Load() {
		return f()
	}
	t0 := time.Now()
	err := f()
	s.tr.store.add(time.Since(t0))
	return err
}

func (s *timedStore) AppendTruth(r store.TruthRecord) error {
	return s.timed(func() error { return s.Store.AppendTruth(r) })
}

func (s *timedStore) AppendWorkerEvents(evs []store.WorkerEvent) error {
	return s.timed(func() error { return s.Store.AppendWorkerEvents(evs) })
}

func (s *timedStore) AppendTrips(recs []store.TrajRecord) error {
	return s.timed(func() error { return s.Store.AppendTrips(recs) })
}

func (s *timedStore) AppendTaskOpen(r store.TaskRecord) error {
	return s.timed(func() error { return s.Store.AppendTaskOpen(r) })
}

func (s *timedStore) AppendTaskDecision(id int64, index int, yes bool) error {
	return s.timed(func() error { return s.Store.AppendTaskDecision(id, index, yes) })
}

func (s *timedStore) AppendTaskClose(id int64) error {
	return s.timed(func() error { return s.Store.AppendTaskClose(id) })
}

// VerifyWorld forwards to the real backend, which pins the world it stores.
func (s *timedStore) VerifyWorld(fp uint64) error {
	if v, ok := s.Store.(store.WorldVerifier); ok {
		return v.VerifyWorld(fp)
	}
	return nil
}

// row is one traced request: what the server did in place, and the replay's
// timing of each layer on the same request.
type row struct {
	// In place.
	req               core.Request
	async             bool   // published through /v1/recommend/async
	stage             string // reuse, agreement, confidence, crowd, fallback
	handler           time.Duration
	oracleIn, storeIn time.Duration // decorator time during the request
	searches, pushes  uint64        // routing counter deltas
	questions         int           // crowd questions used (crowd stage)
	answers           int           // crowd answers used (crowd stage)
	asked             int           // crowd answers collected, early stop aside

	// Replayed.
	decode, encode time.Duration
	lookup         time.Duration
	alt, yen       time.Duration // both cost models' ALT A*; Yen k-shortest
	mine           [3]time.Duration
	mineOK         [3]bool
	fanWall        time.Duration // the provider fan-out's wall time
	fanSum, fanMax time.Duration
	calib          time.Duration // calibrating the distinct candidates
	cands          int           // distinct candidates
	candidates     time.Duration // fan-out plus dedup and calibration
	confidence     time.Duration
	merge          time.Duration
	merged         int
	generated      bool
	generate       time.Duration
	expectedQ      float64
	selected       int
	sel            time.Duration
	oracle         time.Duration
	truthCalib     time.Duration
	ran            bool
	run            time.Duration // one crowd walk on the replay's own RNG stream
	mismatch       string        // non-empty when the replay check failed
}

// replayer re-runs a request through the layers' public functions in
// pipeline order, with the System's own substrates and configuration.
type replayer struct {
	w      *world
	miners []popular.Miner
	nextID int64
}

func newReplayer(w *world) *replayer {
	return &replayer{w: w, miners: []popular.Miner{popular.NewMPR(), popular.NewLDR(), popular.NewMFP()}}
}

func timed(d *time.Duration, f func()) {
	t0 := time.Now()
	f()
	*d = time.Since(t0)
}

// codecTimes times the serving edge's JSON work for one exchange: decoding
// the request body and encoding the response.
func codecTimes(reqBody, respBody []byte) (decode, encode time.Duration) {
	timed(&decode, func() {
		var v struct {
			From      roadnet.NodeID `json:"from"`
			To        roadnet.NodeID `json:"to"`
			DepartMin float64        `json:"depart_min"`
		}
		_ = json.Unmarshal(reqBody, &v)
	})
	var resp any
	_ = json.Unmarshal(respBody, &resp)
	timed(&encode, func() { _ = json.NewEncoder(io.Discard).Encode(resp) })
	return decode, encode
}

// replay times every layer on req and checks that its calibrated candidate
// set equals System.Candidates for the same request. It must run while no
// other request changes the corpus.
func (rp *replayer) replay(r *row, req core.Request, reqBody, respBody []byte) {
	w, cfg := rp.w, rp.w.cfg.System
	g, lms := w.g, w.lms
	r.decode, r.encode = codecTimes(reqBody, respBody)
	timed(&r.lookup, func() { w.sys.TruthDB().Lookup(req.From, req.To, req.Depart) })

	// Candidate fan-out, as the server runs it: one goroutine per provider,
	// merged in provider order.
	type proposal struct {
		source string
		route  roadnet.Route
	}
	slots := make([][]proposal, 3+len(rp.miners))
	durs := make([]time.Duration, len(slots))
	var wg sync.WaitGroup
	run := func(i int, f func() []proposal) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			t0 := time.Now()
			slots[i] = f()
			durs[i] = time.Since(t0)
		}()
	}
	t0 := time.Now()
	run(0, func() []proposal {
		if rt, _, err := w.prepD.AStar(req.From, req.To, req.Depart); err == nil {
			return []proposal{{"ws-shortest", rt}}
		}
		return nil
	})
	run(1, func() []proposal {
		if rt, _, err := w.prepT.AStar(req.From, req.To, req.Depart); err == nil {
			return []proposal{{"ws-fastest", rt}}
		}
		return nil
	})
	run(2, func() []proposal {
		if cfg.KShortestAlternatives <= 0 {
			return nil
		}
		rs, _, err := w.prepT.KShortest(req.From, req.To, cfg.KShortestAlternatives+1, req.Depart)
		if err != nil {
			return nil
		}
		var out []proposal
		for i := 1; i < len(rs); i++ {
			out = append(out, proposal{fmt.Sprintf("ws-alt%d", i), rs[i]})
		}
		return out
	})
	for mi, m := range rp.miners {
		run(3+mi, func() []proposal {
			if rt, _, err := m.Mine(w.data, req.From, req.To, req.Depart); err == nil {
				return []proposal{{m.Name(), rt}}
			}
			return nil
		})
	}
	wg.Wait()
	r.fanWall = time.Since(t0)
	r.alt, r.yen = durs[0]+durs[1], durs[2]
	for i, d := range durs {
		r.fanSum += d
		r.fanMax = max(r.fanMax, d)
		if i >= 3 {
			r.mine[i-3], r.mineOK[i-3] = d, len(slots[i]) > 0
		}
	}
	var cands []task.Candidate
	seen := map[string]int{}
	tm := time.Now()
	for _, ps := range slots {
		for _, p := range ps {
			k := p.route.String()
			if i, ok := seen[k]; ok {
				cands[i].Source += "+" + p.source
				continue
			}
			seen[k] = len(cands)
			c := task.Candidate{Source: p.source, Route: p.route}
			tc := time.Now()
			c.LRoute = calibrate.Calibrate(g, lms, p.route, cfg.Calibrate)
			r.calib += time.Since(tc)
			cands = append(cands, c)
		}
	}
	r.cands = len(cands)
	r.candidates = r.fanWall + time.Since(tm)

	// The replay check: the ledger must decompose the pipeline the server
	// actually runs.
	got, err := w.sys.Candidates(context.Background(), req)
	r.mismatch = candidateMismatch(cands, got, err)

	routes := make([]roadnet.Route, len(cands))
	for i := range cands {
		routes[i] = cands[i].Route
	}
	var confs []float64
	timed(&r.confidence, func() {
		confs = w.sys.TruthDB().ConfidenceBatch(g, routes, req.Depart, cfg.TruthRadius, cfg.TruthSlotTol)
	})
	for i := range cands {
		cands[i].Prior = confs[i]
	}
	var merged []task.Candidate
	timed(&r.merge, func() { merged = task.MergeIndistinguishable(cands) })
	r.merged = len(merged)
	if len(merged) < 2 {
		return
	}
	rp.nextID++
	var tk *task.Task
	timed(&r.generate, func() { tk, err = task.Generate(rp.nextID, lms, merged, cfg.Task) })
	if err != nil {
		return
	}
	r.generated, r.expectedQ = true, tk.ExpectedQuestions()
	var assigned []worker.Ranked
	timed(&r.sel, func() {
		assigned = worker.TopKEligible(w.sys.Pool(), w.sys.Familiarity(), tk.Questions, cfg.WorkersPerTask, cfg.Select)
	})
	r.selected = len(assigned)
	var truthRoute roadnet.Route
	oracle := &core.PopulationOracle{Data: w.data, Sample: cfg.OracleSample}
	timed(&r.oracle, func() { truthRoute, err = oracle.BestRoute(req.From, req.To, req.Depart) })
	if err != nil || len(assigned) == 0 {
		return
	}
	var truthSet map[landmark.ID]bool
	timed(&r.truthCalib, func() {
		lr := calibrate.Calibrate(g, lms, truthRoute, cfg.Calibrate)
		truthSet = lr.IDSet()
	})
	mtrue := w.sys.TrueFamiliarity()
	fam := func(wi int, l landmark.ID) float64 {
		v, _ := mtrue.Get(wi, int(l))
		return v
	}
	// The server seeds each task's crowd from its own configuration and
	// applies rewards as it goes; the replay's walk uses another random
	// stream, so only its time is reported, and the crowd counts come from
	// the in-place reply.
	timed(&r.run, func() {
		_, _ = crowd.RunTaskCtx(context.Background(), tk, assigned, truthSet, fam, cfg.Answers, cfg.EarlyStop,
			rand.New(rand.NewSource(rp.nextID)), nil)
	})
	r.ran = true
}

// candidateMismatch compares the replay's candidates with System.Candidates
// by source, node sequence and calibrated landmark sequence. It returns ""
// when they agree.
func candidateMismatch(want, got []task.Candidate, err error) string {
	if err != nil {
		return err.Error()
	}
	if len(want) != len(got) {
		return fmt.Sprintf("replay has %d candidates, System.Candidates %d", len(want), len(got))
	}
	for i := range want {
		if want[i].Source != got[i].Source || !want[i].Route.Equal(got[i].Route) ||
			!slices.Equal(want[i].LRoute.Landmarks, got[i].LRoute.Landmarks) {
			return fmt.Sprintf("candidate %d: replay %s %v, System.Candidates %s %v",
				i, want[i].Source, want[i].Route.Nodes, got[i].Source, got[i].Route.Nodes)
		}
	}
	return ""
}

// attributed is the in-place time the layer self times explain for r, given
// the stage the server reached and the serving edge's own cost (self).
func (r *row) attributed(self time.Duration) time.Duration {
	d := r.decode + r.encode + self + r.lookup + r.storeIn
	if r.stage == "reuse" {
		return d
	}
	d += r.candidates
	if r.stage == "agreement" {
		return d
	}
	d += r.confidence
	if r.stage == "confidence" {
		return d
	}
	d += r.merge
	if r.generated {
		d += r.generate + r.sel
	}
	if !r.async && r.stage == "crowd" {
		d += r.oracleIn + r.truthCalib + r.run
	}
	return d
}

// edgeSelf measures the serving edge's own cost on reuse hits: the handler
// time of POST /v1/recommend minus a direct System.Recommend of the same
// request, minus JSON decode and encode. It uses up to n stored truths, so
// both calls resolve at the reuse stage and change nothing.
func edgeSelf(w *world, n int) (time.Duration, error) {
	entries, _ := w.sys.TruthDB().EntriesRange(0, n)
	if len(entries) == 0 {
		return 0, fmt.Errorf("no stored truths to measure the serving edge on")
	}
	var res result
	c := newClient(w.h, &res, &sync.Mutex{})
	var sum time.Duration
	for _, e := range entries {
		req := core.Request{From: e.From, To: e.To, Depart: e.StoredAt}
		body := recommendBody(req)
		_, resp := c.do(epRecommend, "POST", "/v1/recommend", body)
		handler := c.last
		var direct time.Duration
		timed(&direct, func() { _, _ = w.sys.Recommend(context.Background(), req) })
		dec, enc := codecTimes(body, resp)
		sum += handler - direct - dec - enc
	}
	if res.failed > 0 {
		return 0, fmt.Errorf("serving-edge probe: %s", res.failures[0])
	}
	return sum / time.Duration(len(entries)), nil
}

// ingestPerTrip replays System.IngestTrips on batches of shifted corpus
// routes and returns the mean time per trip.
func ingestPerTrip(w *world, batches, size int, rng *rand.Rand) time.Duration {
	var total time.Duration
	for b := 0; b < batches; b++ {
		trips := make([]traj.Trajectory, size)
		for i := range trips {
			t := w.trips[rng.Intn(len(w.trips))]
			t.Depart += routing.SimTime(rng.Intn(7 * 1440))
			trips[i] = t
		}
		var d time.Duration
		timed(&d, func() { w.sys.IngestTrips(trips) })
		total += d
	}
	return total / time.Duration(batches*size)
}
