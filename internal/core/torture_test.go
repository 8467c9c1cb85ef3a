package core

import (
	"context"
	"fmt"
	"path/filepath"
	"testing"

	"crowdplanner/internal/store"
	"crowdplanner/internal/store/diskstore"
	"crowdplanner/internal/store/faultstore"
)

// Crash-recovery torture tests: kill the storage backend at every append
// point and assert the durability contract — every acknowledged record is
// present after recovery, nothing unacknowledged appears, replay is
// idempotent, and the world fingerprint still verifies.

// scriptStep is one append in the store-level torture script.
type scriptStep struct {
	op faultstore.Op
	do func(s store.Store) error
}

// tortureScript exercises all six append types in an interleaved order,
// including decisions on an already-open task and a close that supersedes it.
func tortureScript() []scriptStep {
	truth := func(i int32) scriptStep {
		return scriptStep{faultstore.OpTruth, func(s store.Store) error {
			return s.AppendTruth(store.TruthRecord{
				From: i, To: i + 1, Slot: i % 4,
				Nodes: []int32{i, i + 1}, Confidence: 0.9, Crowd: i%2 == 0,
			})
		}}
	}
	trips := func(seqs ...int64) scriptStep {
		recs := make([]store.TrajRecord, len(seqs))
		for i, q := range seqs {
			recs[i] = store.TrajRecord{Seq: q, Driver: int32(q), DepartMin: float64(100 + q), Nodes: []int32{int32(q), int32(q + 1)}}
		}
		return scriptStep{faultstore.OpTrips, func(s store.Store) error { return s.AppendTrips(recs) }}
	}
	taskOpen := func(id int64) scriptStep {
		return scriptStep{faultstore.OpTaskOpen, func(s store.Store) error {
			return s.AppendTaskOpen(store.TaskRecord{ID: id, From: 5, To: 6, DepartMin: 480, Assigned: []int32{1, 2}})
		}}
	}
	decision := func(id int64, idx int, yes bool) scriptStep {
		return scriptStep{faultstore.OpTaskDecision, func(s store.Store) error {
			return s.AppendTaskDecision(id, idx, yes)
		}}
	}
	taskClose := func(id int64) scriptStep {
		return scriptStep{faultstore.OpTaskClose, func(s store.Store) error { return s.AppendTaskClose(id) }}
	}
	events := func(workers ...int32) scriptStep {
		evs := make([]store.WorkerEvent, len(workers))
		for i, w := range workers {
			evs[i] = store.WorkerEvent{Worker: w, Landmark: w % 7, Correct: true, RewardBalance: float64(w) + 0.5, TallyCorrect: 1}
		}
		return scriptStep{faultstore.OpWorkerEvents, func(s store.Store) error { return s.AppendWorkerEvents(evs) }}
	}
	return []scriptStep{
		truth(0),
		trips(0, 1, 2),
		taskOpen(1),
		events(1, 2),
		decision(1, 0, true),
		truth(1),
		decision(1, 1, false),
		trips(3, 4),
		taskOpen(2),
		events(3),
		taskClose(1),
		truth(2),
	}
}

// expectAfter logically replays the first `acked` script steps into the
// state a correct recovery must produce.
func expectAfter(steps []scriptStep, acked int) *store.State {
	st := &store.State{}
	tasks := map[int64]*store.TaskRecord{}
	for i := 0; i < acked; i++ {
		switch steps[i].op {
		case faultstore.OpTruth:
			var probe captureStore
			_ = steps[i].do(&probe)
			st.Truths = append(st.Truths, probe.truths...)
		case faultstore.OpTrips:
			var probe captureStore
			_ = steps[i].do(&probe)
			st.Trips = append(st.Trips, probe.trips...)
		case faultstore.OpWorkerEvents:
			var probe captureStore
			_ = steps[i].do(&probe)
			st.WorkerEvents = append(st.WorkerEvents, probe.events...)
		case faultstore.OpTaskOpen:
			var probe captureStore
			_ = steps[i].do(&probe)
			r := probe.taskOpens[0]
			tasks[r.ID] = &r
		case faultstore.OpTaskDecision:
			var probe captureStore
			_ = steps[i].do(&probe)
			d := probe.decisions[0]
			if tk := tasks[d.id]; tk != nil {
				tk.Decisions = store.SetDecision(tk.Decisions, d.index, d.yes)
			}
		case faultstore.OpTaskClose:
			var probe captureStore
			_ = steps[i].do(&probe)
			delete(tasks, probe.closes[0])
		}
	}
	for _, tk := range tasks {
		st.OpenTasks = append(st.OpenTasks, *tk)
	}
	st.FoldEvents()
	st.DedupeTrips()
	return st
}

// captureStore records what a script step appends, so the model replay does
// not duplicate the script's payload construction.
type captureStore struct {
	truths    []store.TruthRecord
	trips     []store.TrajRecord
	events    []store.WorkerEvent
	taskOpens []store.TaskRecord
	decisions []struct {
		id    int64
		index int
		yes   bool
	}
	closes []int64
}

func (c *captureStore) AppendTruth(r store.TruthRecord) error {
	c.truths = append(c.truths, r)
	return nil
}
func (c *captureStore) AppendWorkerEvents(evs []store.WorkerEvent) error {
	c.events = append(c.events, evs...)
	return nil
}
func (c *captureStore) AppendTrips(recs []store.TrajRecord) error {
	c.trips = append(c.trips, recs...)
	return nil
}
func (c *captureStore) AppendTaskOpen(r store.TaskRecord) error {
	c.taskOpens = append(c.taskOpens, r)
	return nil
}
func (c *captureStore) AppendTaskDecision(id int64, index int, yes bool) error {
	c.decisions = append(c.decisions, struct {
		id    int64
		index int
		yes   bool
	}{id, index, yes})
	return nil
}
func (c *captureStore) AppendTaskClose(id int64) error     { c.closes = append(c.closes, id); return nil }
func (c *captureStore) Load() (*store.State, error)        { return nil, nil }
func (c *captureStore) Snapshot(func() *store.State) error { return nil }
func (c *captureStore) Stats() store.Stats                 { return store.Stats{} }
func (c *captureStore) Close() error                       { return nil }

// runScript drives every step, ignoring injected errors (the serving core
// absorbs append failures the same way).
func runScript(t *testing.T, fs *faultstore.Store, steps []scriptStep) {
	t.Helper()
	for _, step := range steps {
		_ = step.do(fs)
	}
}

// assertState compares a recovered state against the model, field by field.
func assertState(t *testing.T, label string, got, want *store.State) {
	t.Helper()
	if got == nil {
		got = &store.State{}
	}
	if len(got.Truths) != len(want.Truths) {
		t.Fatalf("%s: %d truths, want %d", label, len(got.Truths), len(want.Truths))
	}
	for i := range want.Truths {
		g, w := got.Truths[i], want.Truths[i]
		if g.From != w.From || g.To != w.To || g.Slot != w.Slot || g.Confidence != w.Confidence || g.Crowd != w.Crowd || len(g.Nodes) != len(w.Nodes) {
			t.Fatalf("%s: truth %d = %+v, want %+v", label, i, g, w)
		}
	}
	if len(got.Trips) != len(want.Trips) {
		t.Fatalf("%s: %d trips, want %d", label, len(got.Trips), len(want.Trips))
	}
	for i := range want.Trips {
		if got.Trips[i].Seq != want.Trips[i].Seq || got.Trips[i].Driver != want.Trips[i].Driver {
			t.Fatalf("%s: trip %d = %+v, want %+v", label, i, got.Trips[i], want.Trips[i])
		}
	}
	if len(got.OpenTasks) != len(want.OpenTasks) {
		t.Fatalf("%s: %d open tasks, want %d", label, len(got.OpenTasks), len(want.OpenTasks))
	}
	for i := range want.OpenTasks {
		g, w := got.OpenTasks[i], want.OpenTasks[i]
		if g.ID != w.ID || len(g.Decisions) != len(w.Decisions) {
			t.Fatalf("%s: task %d = %+v, want %+v", label, i, g, w)
		}
		for j := range w.Decisions {
			if g.Decisions[j] != w.Decisions[j] {
				t.Fatalf("%s: task %d decision %d = %v, want %v", label, i, j, g.Decisions[j], w.Decisions[j])
			}
		}
	}
	if len(got.Workers) != len(want.Workers) {
		t.Fatalf("%s: %d workers, want %d", label, len(got.Workers), len(want.Workers))
	}
	for i := range want.Workers {
		g, w := got.Workers[i], want.Workers[i]
		if g.ID != w.ID || g.Reward != w.Reward || len(g.History) != len(w.History) {
			t.Fatalf("%s: worker %d = %+v, want %+v", label, i, g, w)
		}
	}
}

// TestTortureKillAtEveryAppendPoint is the store-level sweep: for every
// append ordinal k, crash the backend immediately before (and, in a second
// pass, immediately after) the k-th append, reopen the directory with a
// plain diskstore, and assert the recovered state is exactly the
// acknowledged prefix — no lost committed records, no phantom ones.
func TestTortureKillAtEveryAppendPoint(t *testing.T) {
	steps := tortureScript()
	n := len(steps)
	for k := 1; k <= n; k++ {
		for _, after := range []bool{false, true} {
			plan := faultstore.KillAtAppend(k)
			acked := k - 1
			label := fmt.Sprintf("kill-before-%d", k)
			if after {
				plan = faultstore.KillAfterAppend(k)
				acked = k
				label = fmt.Sprintf("kill-after-%d", k)
			}
			dir := t.TempDir()
			ds, err := diskstore.Open(dir)
			if err != nil {
				t.Fatal(err)
			}
			fs := faultstore.New(ds, plan)
			runScript(t, fs, steps)
			if !fs.Killed() {
				t.Fatalf("%s: plan never fired", label)
			}
			if got := len(fs.AckLog()); got != acked {
				t.Fatalf("%s: %d acked appends, want %d", label, got, acked)
			}
			// A crashed process does not close its store: reopen the
			// directory cold, exactly like the next boot would.
			ds2, err := diskstore.Open(dir)
			if err != nil {
				t.Fatalf("%s: reopen: %v", label, err)
			}
			loaded, err := ds2.Load()
			if err != nil {
				t.Fatalf("%s: load: %v", label, err)
			}
			assertState(t, label, loaded, expectAfter(steps, acked))
			if err := ds2.Close(); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// TestTortureTornTail tears bytes off the WAL tail (a crash mid-write) and
// appends garbage (a partially flushed page), asserting recovery keeps the
// valid prefix and reports the truncation.
func TestTortureTornTail(t *testing.T) {
	steps := tortureScript()

	t.Run("torn", func(t *testing.T) {
		dir := t.TempDir()
		ds, err := diskstore.Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		fs := faultstore.New(ds, nil)
		runScript(t, fs, steps)
		if err := ds.Close(); err != nil {
			t.Fatal(err)
		}
		if _, err := faultstore.TearTail(filepath.Join(dir, "wal.cpl"), 5); err != nil {
			t.Fatal(err)
		}
		ds2, err := diskstore.Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		defer ds2.Close()
		loaded, err := ds2.Load()
		if err != nil {
			t.Fatalf("load after torn tail: %v", err)
		}
		if !ds2.Stats().Truncated {
			t.Fatal("torn tail not reported as truncated")
		}
		// The last record (a truth) straddles the tear; everything before it
		// must survive intact.
		assertState(t, "torn", loaded, expectAfter(steps, len(steps)-1))
	})

	t.Run("garbage", func(t *testing.T) {
		dir := t.TempDir()
		ds, err := diskstore.Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		fs := faultstore.New(ds, nil)
		runScript(t, fs, steps)
		if err := ds.Close(); err != nil {
			t.Fatal(err)
		}
		if err := faultstore.AppendGarbage(filepath.Join(dir, "wal.cpl"), []byte{0xDE, 0xAD, 0xBE, 0xEF}); err != nil {
			t.Fatal(err)
		}
		ds2, err := diskstore.Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		defer ds2.Close()
		loaded, err := ds2.Load()
		if err != nil {
			t.Fatalf("load after garbage tail: %v", err)
		}
		if !ds2.Stats().Truncated {
			t.Fatal("garbage tail not reported as truncated")
		}
		// The garbage follows complete records: nothing committed is lost.
		assertState(t, "garbage", loaded, expectAfter(steps, len(steps)))
	})
}

// tinyTortureConfig is a scenario small enough to rebuild once per kill
// point.
func tinyTortureConfig() ScenarioConfig {
	cfg := SmallScenarioConfig()
	cfg.City.Cols, cfg.City.Rows = 6, 6
	cfg.Population.NumDrivers = 24
	cfg.Dataset.NumODs = 6
	cfg.Dataset.TripsPerOD = 5
	cfg.Landmarks.NumPoints = 30
	cfg.Landmarks.NumLines = 3
	cfg.Landmarks.NumRegions = 2
	cfg.Checkins.NumUsers = 40
	cfg.Workers.NumWorkers = 40
	cfg.System.PMF.Iters = 10
	return cfg
}

// tortureWorkload drives a deterministic mixed workload: ingest, synchronous
// recommends (truth + worker-event commits), and an async task lifecycle.
// Append failures are absorbed by the core, so the sequence of *attempted*
// appends is identical whatever the fault plan does.
func tortureWorkload(scn *Scenario) {
	ctx := context.Background()
	sys := scn.System
	sys.IngestTrips(cloneTrips(scn, 3, 45))
	served := 0
	for _, tr := range scn.Data.Trips {
		if tr.Route.Empty() {
			continue
		}
		_, _ = sys.Recommend(ctx, Request{From: tr.Route.Source(), To: tr.Route.Dest(), Depart: tr.Depart})
		if served++; served == 4 {
			break
		}
	}
	sys.IngestTrips(cloneTrips(scn, 2, 90))
	// Try to publish an async task; whichever OD first yields a ticket gets
	// one answer and is then expired (open → decision(s) → close records).
	for _, tr := range scn.Data.Trips {
		if tr.Route.Empty() {
			continue
		}
		_, ticket, err := sys.RecommendAsync(ctx, Request{
			From: tr.Route.Source(), To: tr.Route.Dest(),
			Depart: tr.Depart.Add(200), DeadlineMin: 30,
		})
		if err != nil || ticket == nil {
			continue
		}
		if len(ticket.Assigned) > 0 {
			_, _ = sys.SubmitAnswer(ticket.ID, ticket.Assigned[0].Worker.ID, true)
		}
		_, _ = sys.ExpireTask(ticket.ID)
		break
	}
}

// buildTortured builds the tiny scenario over a faultstore-wrapped diskstore
// in dir and boots it (replaying any persisted state, pinning the world).
func buildTortured(t *testing.T, dir string, plan faultstore.Plan) (*Scenario, *faultstore.Store, *diskstore.Store) {
	t.Helper()
	ds, err := diskstore.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	fs := faultstore.New(ds, plan)
	cfg := tinyTortureConfig()
	cfg.System.Store = fs
	scn := BuildScenario(cfg)
	if _, err := scn.System.LoadFromStore(context.Background()); err != nil {
		t.Fatal(err)
	}
	return scn, fs, ds
}

// TestTortureCoreCrashRecovery is the core-level sweep: run the full mixed
// workload against a real System, crash the store before every append point
// in turn, and assert the durable prefix is exact. At sampled kill points a
// full System is rebooted over the survivors: the world fingerprint must
// verify, replay must succeed, and snapshot + replay must be idempotent.
func TestTortureCoreCrashRecovery(t *testing.T) {
	if testing.Short() {
		t.Skip("torture sweep in -short mode")
	}
	// Baseline: the workload over a healthy fault store, twice, to pin down
	// the attempted-append sequence and prove it deterministic.
	baseDir := t.TempDir()
	scn, fs, ds := buildTortured(t, baseDir, nil)
	tortureWorkload(scn)
	acks := fs.AckLog()
	if err := ds.Close(); err != nil {
		t.Fatal(err)
	}
	if len(acks) == 0 {
		t.Fatal("baseline workload appended nothing")
	}
	var nTruths, nTrips, nEvents int
	for _, op := range acks {
		switch op {
		case faultstore.OpTruth:
			nTruths++
		case faultstore.OpTrips:
			nTrips++
		case faultstore.OpWorkerEvents:
			nEvents++
		}
	}
	t.Logf("baseline: %d appends (%d truths, %d trip batches, %d event batches)", len(acks), nTruths, nTrips, nEvents)
	if nTruths == 0 || nTrips != 2 {
		t.Fatalf("workload did not exercise truths+ingest: %v", acks)
	}

	scn2, fs2, ds2 := buildTortured(t, t.TempDir(), nil)
	tortureWorkload(scn2)
	acks2 := fs2.AckLog()
	if err := ds2.Close(); err != nil {
		t.Fatal(err)
	}
	if len(acks) != len(acks2) {
		t.Fatalf("workload nondeterministic: %d vs %d appends", len(acks), len(acks2))
	}
	for i := range acks {
		if acks[i] != acks2[i] {
			t.Fatalf("workload nondeterministic at append %d: %v vs %v", i+1, acks[i], acks2[i])
		}
	}

	// Baseline durable state, as the next boot would see it.
	ref, err := func() (*store.State, error) {
		d, err := diskstore.Open(baseDir)
		if err != nil {
			return nil, err
		}
		defer d.Close()
		return d.Load()
	}()
	if err != nil {
		t.Fatal(err)
	}
	// The two ingest batches are the only trip appends, in workload order.
	tripBatch := []int{3, 2}

	n := len(acks)
	rebootAt := map[int]bool{1: true, n / 4: true, n / 2: true, 3 * n / 4: true, n: true}
	for k := 1; k <= n; k++ {
		dir := t.TempDir()
		scnK, fsK, dsK := buildTortured(t, dir, faultstore.KillAtAppend(k))
		tortureWorkload(scnK)
		if !fsK.Killed() {
			t.Fatalf("kill %d never fired", k)
		}
		acksK := fsK.AckLog()
		if len(acksK) != k-1 {
			t.Fatalf("kill %d: %d acked, want %d", k, len(acksK), k-1)
		}
		for i := range acksK {
			if acksK[i] != acks[i] {
				t.Fatalf("kill %d: append %d = %v, baseline %v", k, i+1, acksK[i], acks[i])
			}
		}

		// Recover the directory cold and compare against the acked prefix.
		wantTruths, wantTrips := 0, 0
		tripsSeen := 0
		for _, op := range acksK {
			switch op {
			case faultstore.OpTruth:
				wantTruths++
			case faultstore.OpTrips:
				wantTrips += tripBatch[tripsSeen]
				tripsSeen++
			}
		}
		dsR, err := diskstore.Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		loaded, err := dsR.Load()
		if err != nil {
			t.Fatalf("kill %d: load: %v", k, err)
		}
		if loaded == nil {
			loaded = &store.State{}
		}
		if len(loaded.Truths) != wantTruths {
			t.Fatalf("kill %d: %d truths survived, want %d", k, len(loaded.Truths), wantTruths)
		}
		for i := range loaded.Truths {
			g, w := loaded.Truths[i], ref.Truths[i]
			if g.From != w.From || g.To != w.To || g.Slot != w.Slot {
				t.Fatalf("kill %d: truth %d = %+v, baseline %+v", k, i, g, w)
			}
		}
		if len(loaded.Trips) != wantTrips {
			t.Fatalf("kill %d: %d trips survived, want %d", k, len(loaded.Trips), wantTrips)
		}
		for i := range loaded.Trips {
			if loaded.Trips[i].Seq != ref.Trips[i].Seq {
				t.Fatalf("kill %d: trip %d seq %d, baseline %d", k, i, loaded.Trips[i].Seq, ref.Trips[i].Seq)
			}
		}
		if err := dsR.Close(); err != nil {
			t.Fatal(err)
		}
		_ = dsK // the crashed handle is deliberately never closed

		if !rebootAt[k] {
			continue
		}
		// Full System reboot over the survivors: fingerprint, replay,
		// snapshot, and a second replay must all agree.
		dsB, err := diskstore.Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		cfg := tinyTortureConfig()
		cfg.System.Store = dsB
		reboot := BuildScenario(cfg)
		stats, err := reboot.System.LoadFromStore(context.Background())
		if err != nil {
			t.Fatalf("kill %d: reboot replay: %v", k, err)
		}
		if stats.LoadedTruths != wantTruths || stats.LoadedTrips != wantTrips {
			t.Fatalf("kill %d: reboot loaded %d truths %d trips, want %d/%d", k, stats.LoadedTruths, stats.LoadedTrips, wantTruths, wantTrips)
		}
		if _, err := reboot.System.Snapshot(); err != nil {
			t.Fatalf("kill %d: snapshot after recovery: %v", k, err)
		}
		if err := dsB.Close(); err != nil {
			t.Fatal(err)
		}
		dsI, err := diskstore.Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		again, err := dsI.Load()
		if err != nil {
			t.Fatalf("kill %d: post-snapshot replay: %v", k, err)
		}
		if again == nil {
			again = &store.State{}
		}
		if len(again.Truths) != wantTruths || len(again.Trips) != wantTrips {
			t.Fatalf("kill %d: snapshot+replay changed state: %d truths %d trips, want %d/%d",
				k, len(again.Truths), len(again.Trips), wantTruths, wantTrips)
		}
		if err := dsI.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestTortureWorldFingerprintMismatch: recovering a directory with a
// *different* world must be refused — replaying another city's truths would
// serve wrong routes as crowd-verified.
func TestTortureWorldFingerprintMismatch(t *testing.T) {
	dir := t.TempDir()
	scn, _, ds := buildTortured(t, dir, nil)
	tortureWorkload(scn)
	if err := ds.Close(); err != nil {
		t.Fatal(err)
	}

	other, err := diskstore.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer other.Close()
	cfg := tinyTortureConfig()
	cfg.City.Cols = 7 // a different world
	cfg.System.Store = other
	wrong := BuildScenario(cfg)
	if _, err := wrong.System.LoadFromStore(context.Background()); err == nil {
		t.Fatal("replaying a different world's store did not fail fingerprint verification")
	}
}
