package main

import (
	"math"
	"math/rand"
	"slices"
	"sync"
	"time"

	"crowdplanner/internal/core"
	"crowdplanner/internal/routecache"
	"crowdplanner/internal/server"
)

// tracedRun records the sampled primary requests of a traced phase and
// replays each through the layers right after it completes.
type tracedRun struct {
	w     *world
	tr    *tracer
	rp    *replayer
	limit int
	rows  []row
	check routecache.Stats // route-cache traffic of the replay checks
}

// sampling reports whether the next primary request is traced.
func (t *tracedRun) sampling() bool { return t != nil && len(t.rows) < t.limit }

// call sends one traced request through send, which returns the reply body
// (nil on failure), the stage and the reply's task summary, if any.
// In-place spans and counters are read around the call; the replay follows.
func (t *tracedRun) call(c *client, async bool, req core.Request, body []byte, send func() ([]byte, string, *server.TaskInfo)) {
	sys := t.w.sys
	o0, _ := t.tr.oracle.read()
	s0, _ := t.tr.store.read()
	r0 := sys.RoutingStats()
	resp, stage, tk := send()
	if resp == nil {
		return
	}
	o1, _ := t.tr.oracle.read()
	s1, _ := t.tr.store.read()
	r1 := sys.RoutingStats()
	r := row{
		req: req, async: async, stage: stage, handler: c.last, oracleIn: o1 - o0, storeIn: s1 - s0,
		searches: r1.Searches - r0.Searches, pushes: r1.HeapPushes - r0.HeapPushes,
	}
	if tk != nil {
		// Every assigned worker answers every question the crowd loop asks.
		r.questions, r.answers, r.asked = tk.QuestionsUsed, tk.AnswersUsed, tk.QuestionsUsed*tk.WorkersAssigned
	}
	resp = append([]byte(nil), resp...)
	c0 := sys.RouteCacheStats()
	t.rp.replay(&r, req, body, resp)
	c1 := sys.RouteCacheStats()
	t.check.Hits += c1.Hits - c0.Hits
	t.check.Misses += c1.Misses - c0.Misses
	t.check.Evictions += c1.Evictions - c0.Evictions
	t.rows = append(t.rows, r)
}

// run measures the workload end to end: o.setups set-ups, then one timed
// phase with tracing off.
func (wl workload) run(o options) (*result, error) {
	if o.trace {
		return wl.runTraced(o)
	}
	w, setup, err := setUp(o, wl.durable, func(w *world) error { return wl.prepareWorld(w, o) })
	if err != nil {
		return nil, err
	}
	defer func() { _ = w.close() }()
	res := &result{world: w.shape()}
	d := wl.newTraffic(w, o, res, &sync.Mutex{})
	t0 := time.Now()
	clients := d.drive(newPhase(o), nil)
	elapsed := time.Since(t0)
	d.finish()
	lat, attempted := latencies(clients)
	res.attempted += attempted
	prim := lat[wl.primary]
	res.e2e = []metric{
		{"setup_s", setup.Seconds(), "s", o.setups},
		{"throughput_rps", float64(attempted) / elapsed.Seconds(), "1/s", attempted},
		{"primary_p50_ms", ms(quantile(prim, 0.50)), "ms", len(prim)},
		{"primary_p95_ms", ms(quantile(prim, 0.95)), "ms", len(prim)},
	}
	for ep, l := range lat {
		if len(l) > 0 {
			res.detail = append(res.detail, latencyMetrics(endpointNames[ep], l)...)
		}
	}
	offset := 0
	for _, c := range clients {
		offset += c.offset
		c.lat = [numEndpoints][]time.Duration{} // the samples are not the system's heap
	}
	res.e2e = append(res.e2e, metric{"heap_mb", liveHeapMB(), "MB", 0})
	res.detail = append(res.detail, d.extra(elapsed)...)
	res.detail = append(res.detail, metric{"offset_routes", float64(offset), "count", 0})
	res.detail = append(res.detail, metric{"error_ratio", float64(res.failed) / float64(max(res.attempted, 1)), "ratio", res.attempted})
	return res, nil
}

func (wl workload) prepareWorld(w *world, o options) error {
	if wl.prepare == nil {
		return nil
	}
	return wl.prepare(w, o)
}

// runTraced builds the world step by step with the timing decorators, runs a
// traced phase (sampled requests replayed through the layers) and an
// untraced phase of half the run each, and reports the per-layer ledger.
func (wl workload) runTraced(o options) (*result, error) {
	tr := &tracer{}
	w, err := buildWorld(o, wl.durable, tr)
	if err == nil {
		err = wl.prepareWorld(w, o)
	}
	if err != nil {
		return nil, err
	}
	defer func() { _ = w.close() }()
	sys := w.sys
	res := &result{world: w.shape()}
	d := wl.newTraffic(w, o, res, &sync.Mutex{})
	t := &tracedRun{w: w, tr: tr, rp: newReplayer(w), limit: o.sample}
	half := o
	half.seconds = o.seconds / 2

	cache0, coal0 := sys.RouteCacheStats(), sys.CoalescedRequests()
	tr.on.Store(true)
	traced := d.drive(newPhase(half), t)
	tr.on.Store(false)
	cache1, coal1 := sys.RouteCacheStats(), sys.CoalescedRequests()
	_, appends := tr.store.read()
	untraced := d.drive(newPhase(half), nil)
	d.finish()
	lat1, n1 := latencies(traced)
	lat2, n2 := latencies(untraced)
	res.attempted = n1 + n2
	for _, r := range t.rows {
		if r.mismatch != "" {
			res.fail("replay check: %d->%d at %v: %s", r.req.From, r.req.To, r.req.Depart, r.mismatch)
		}
	}
	if len(t.rows) == 0 {
		res.fail("no request was traced")
		return res, nil
	}

	corpus := sys.CorpusSize()
	stats, _ := sys.StoreStats()
	self, err := edgeSelf(w, 200)
	if err != nil {
		res.fail("%v", err)
	}
	tr.on.Store(true)
	perTrip := ingestPerTrip(w, 20, 10, rand.New(rand.NewSource(o.seed)))
	tr.on.Store(false)

	rows := t.rows
	n := float64(len(rows))
	mean := func(pick func(*row) (time.Duration, bool)) float64 {
		var sum time.Duration
		k := 0
		for i := range rows {
			if d, ok := pick(&rows[i]); ok {
				sum += d
				k++
			}
		}
		if k == 0 {
			return 0
		}
		return ms(sum / time.Duration(k))
	}
	share := func(pred func(*row) bool) float64 {
		k := 0
		for i := range rows {
			if pred(&rows[i]) {
				k++
			}
		}
		return float64(k) / n
	}
	per := func(f func(*row) float64, pred func(*row) bool) float64 {
		var sum float64
		k := 0
		for i := range rows {
			if pred(&rows[i]) {
				sum += f(&rows[i])
				k++
			}
		}
		if k == 0 {
			return 0
		}
		return sum / float64(k)
	}
	all := func(*row) bool { return true }
	always := func(f func(*row) time.Duration) func(*row) (time.Duration, bool) {
		return func(r *row) (time.Duration, bool) { return f(r), true }
	}
	var unattributed time.Duration
	for i := range rows {
		unattributed += rows[i].handler - rows[i].attributed(self)
	}
	handlerMs := mean(always(func(r *row) time.Duration { return r.handler }))
	unattributedMs := ms(unattributed / time.Duration(len(rows)))
	tolerance := unattributedTolerance
	if o.small {
		tolerance = smallUnattributedTolerance
	}
	if wl.reconcile && math.Abs(unattributedMs) > tolerance*handlerMs {
		res.fail("reconciliation: %.3f ms of the %.3f ms in-place request is unattributed (tolerance %.0f%%)",
			unattributedMs, handlerMs, 100*tolerance)
	}

	var gens []time.Duration
	for i := range rows {
		if rows[i].generated {
			gens = append(gens, rows[i].generate)
		}
	}
	slices.Sort(gens)
	generated := func(r *row) bool { return r.generated }
	var asked, used int
	for i := range rows {
		if rows[i].stage == "crowd" {
			asked += rows[i].asked
			used += rows[i].answers
		}
	}
	earlyStop := 0.0
	if asked > 0 {
		earlyStop = 1 - float64(used)/float64(asked)
	}
	calls := per(func(r *row) float64 {
		c := 0
		if r.stage != "reuse" {
			c += r.cands
		}
		if !r.async && r.stage == "crowd" {
			c++ // the oracle's route
		}
		return float64(c)
	}, all)
	lookups := (cache1.Hits - cache0.Hits - t.check.Hits) + (cache1.Misses - cache0.Misses - t.check.Misses)
	hitRatio := 0.0
	if lookups > 0 {
		hitRatio = float64(cache1.Hits-cache0.Hits-t.check.Hits) / float64(lookups)
	}
	storeNs, storeCalls := tr.store.read()
	var appendMs float64
	if storeCalls > 0 {
		appendMs = ms(storeNs / time.Duration(storeCalls))
	}
	var primaries, reused int
	for _, c := range append(traced, untraced...) {
		primaries += len(c.lat[wl.primary])
		reused += c.reused
	}
	stage := func(s string) func(*row) bool { return func(r *row) bool { return r.stage == s } }
	mined := func(i int) func(*row) bool { return func(r *row) bool { return r.mineOK[i] } }
	var refresh float64
	for _, s := range w.steps {
		if s.name == "setup.familiarity_s" {
			refresh = s.value * 1000
		}
	}

	res.layers = []metric{
		{"server.decode_ms", mean(always(func(r *row) time.Duration { return r.decode })), "ms", len(rows)},
		{"server.encode_ms", mean(always(func(r *row) time.Duration { return r.encode })), "ms", len(rows)},
		{"server.self_ms", ms(self), "ms", 0},
		{"core.handler_ms", handlerMs, "ms", len(rows)},
		{"core.unattributed_ms", unattributedMs, "ms", len(rows)},
		{"core.stage.reuse", share(stage("reuse")), "ratio", len(rows)},
		{"core.stage.agreement", share(stage("agreement")), "ratio", len(rows)},
		{"core.stage.confidence", share(stage("confidence")), "ratio", len(rows)},
		{"core.stage.crowd", share(stage("crowd")), "ratio", len(rows)},
		{"core.stage.fallback", share(stage("fallback")), "ratio", len(rows)},
		{"core.candidates_ms", mean(always(func(r *row) time.Duration { return r.candidates })), "ms", len(rows)},
		{"core.fanout_sum_ms", mean(always(func(r *row) time.Duration { return r.fanSum })), "ms", len(rows)},
		{"core.fanout_max_ms", mean(always(func(r *row) time.Duration { return r.fanMax })), "ms", len(rows)},
		{"core.coalesced", float64(coal1 - coal0), "count", 0},
		{"routecache.hit_ratio", hitRatio, "ratio", int(lookups)},
		{"routecache.invalidations", float64(cache1.Invalidations - cache0.Invalidations), "count", 0},
		{"routecache.evictions", float64(cache1.Evictions - cache0.Evictions - t.check.Evictions), "count", 0},
		{"routing.alt_ms", mean(always(func(r *row) time.Duration { return r.alt })), "ms", len(rows)},
		{"routing.yen_ms", mean(always(func(r *row) time.Duration { return r.yen })), "ms", len(rows)},
		{"routing.searches_per_req", per(func(r *row) float64 { return float64(r.searches) }, all), "count", len(rows)},
		{"routing.heap_pushes_per_req", per(func(r *row) float64 { return float64(r.pushes) }, all), "count", len(rows)},
		{"popular.mpr_ms", mean(always(func(r *row) time.Duration { return r.mine[0] })), "ms", len(rows)},
		{"popular.ldr_ms", mean(always(func(r *row) time.Duration { return r.mine[1] })), "ms", len(rows)},
		{"popular.mfp_ms", mean(always(func(r *row) time.Duration { return r.mine[2] })), "ms", len(rows)},
		{"popular.mpr.ok_ratio", share(mined(0)), "ratio", len(rows)},
		{"popular.ldr.ok_ratio", share(mined(1)), "ratio", len(rows)},
		{"popular.mfp.ok_ratio", share(mined(2)), "ratio", len(rows)},
		{"calibrate.ms", mean(func(r *row) (time.Duration, bool) {
			return r.calib / time.Duration(max(r.cands, 1)), r.cands > 0
		}), "ms", len(rows)},
		{"calibrate.calls_per_req", calls, "count", len(rows)},
		{"truth.lookup_ms", mean(always(func(r *row) time.Duration { return r.lookup })), "ms", len(rows)},
		{"truth.confidence_ms", mean(always(func(r *row) time.Duration { return r.confidence })), "ms", len(rows)},
		{"truth.entries", float64(sys.TruthDB().Len()), "count", 0},
		{"truth.reuse_ratio", float64(reused) / float64(max(primaries, 1)), "ratio", primaries},
		{"task.generate_p50_ms", ms(quantile(gens, 0.50)), "ms", len(gens)},
		{"task.generate_p99_ms", ms(quantile(gens, 0.99)), "ms", len(gens)},
		{"task.merged_candidates", per(func(r *row) float64 { return float64(r.merged) }, all), "count", len(rows)},
		{"task.expected_questions", per(func(r *row) float64 { return r.expectedQ }, generated), "count", len(gens)},
		{"worker.select_ms", mean(func(r *row) (time.Duration, bool) { return r.sel, r.generated }), "ms", len(gens)},
		{"worker.selected_per_task", per(func(r *row) float64 { return float64(r.selected) }, generated), "count", len(gens)},
		{"worker.fallback_ratio", per(func(r *row) float64 { return b2f(r.selected == 0) }, generated), "ratio", len(gens)},
		{"worker.refresh_ms", refresh, "ms", 0},
		{"crowd.run_ms", mean(func(r *row) (time.Duration, bool) { return r.run, r.ran }), "ms", 0},
		{"crowd.questions_per_task", per(func(r *row) float64 { return float64(r.questions) }, stage("crowd")), "count", 0},
		{"crowd.answers_per_task", per(func(r *row) float64 { return float64(r.answers) }, stage("crowd")), "count", 0},
		{"crowd.early_stop_ratio", earlyStop, "ratio", asked},
		{"traj.oracle_ms", mean(func(r *row) (time.Duration, bool) { return r.oracle, r.oracle > 0 }), "ms", 0},
		{"traj.ingest_ms_per_trip", ms(perTrip), "ms", 200},
		{"traj.corpus_trips", float64(corpus), "count", 0},
		{"store.appends", float64(appends), "count", 0},
		{"store.append_ms", appendMs, "ms", int(storeCalls)},
		{"store.wal_bytes", float64(stats.WALBytes), "bytes", 0},
	}
	res.layers = append(res.layers, w.steps...)
	res.layers = append(res.layers, metric{"trace.overhead_ms",
		ms(quantile(lat1[wl.primary], 0.5) - quantile(lat2[wl.primary], 0.5)), "ms", 0})
	return res, nil
}

func b2f(b bool) float64 {
	if b {
		return 1
	}
	return 0
}
