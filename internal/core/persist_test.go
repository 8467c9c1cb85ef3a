package core

import (
	"context"
	"fmt"
	"math"
	"strings"
	"testing"

	"crowdplanner/internal/roadnet"
	"crowdplanner/internal/store"
	"crowdplanner/internal/store/diskstore"
	"crowdplanner/internal/traj"
)

// buildPersistent builds the small scenario over a diskstore rooted at dir
// and replays any persisted state, returning the scenario and the store.
func buildPersistent(t *testing.T, dir string) (*Scenario, *diskstore.Store) {
	t.Helper()
	ds, err := diskstore.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	cfg := SmallScenarioConfig()
	cfg.System.Store = ds
	scn := BuildScenario(cfg)
	if _, err := scn.System.LoadFromStore(context.Background()); err != nil {
		t.Fatal(err)
	}
	return scn, ds
}

// TestRestartServesReuseFromWAL is the acceptance-criterion test: a system
// that verified a truth, then dies without snapshotting (WAL only — the
// "kill -9" case), must serve the same route via StageReuse after restart,
// without re-running the crowd.
func TestRestartServesReuseFromWAL(t *testing.T) {
	dir := t.TempDir()
	scn1, ds1 := buildPersistent(t, dir)

	var req Request
	var first *Response
	for _, tr := range scn1.Data.Trips {
		if tr.Route.Empty() {
			continue
		}
		r := Request{From: tr.Route.Source(), To: tr.Route.Dest(), Depart: tr.Depart}
		resp, err := scn1.System.Recommend(context.Background(), r)
		if err != nil {
			continue
		}
		// Any first-time resolution commits a truth for this OD+slot.
		req, first = r, resp
		break
	}
	if first == nil {
		t.Fatal("no trip produced a recommendation")
	}
	if n := scn1.System.TruthDB().Len(); n == 0 {
		t.Fatal("recommendation stored no truth")
	}
	// Kill: close the store without snapshotting. Only the WAL survives.
	if err := ds1.Close(); err != nil {
		t.Fatal(err)
	}

	scn2, ds2 := buildPersistent(t, dir)
	defer ds2.Close()
	st, _ := scn2.System.StoreStats()
	if st.LoadedTruths == 0 {
		t.Fatalf("restart loaded no truths: %+v", st)
	}
	resp, err := scn2.System.Recommend(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Stage != StageReuse {
		t.Fatalf("restarted system resolved via %v, want %v", resp.Stage, StageReuse)
	}
	if !resp.Route.Equal(first.Route) {
		t.Fatalf("restarted route %v != original %v", resp.Route, first.Route)
	}
	if resp.Run != nil {
		t.Fatal("reuse after restart ran the crowd")
	}
}

// TestSnapshotCompactsAndRestores: snapshot mid-stream, keep serving (tail
// lands in the fresh WAL), restart, and verify the full truth set is back.
func TestSnapshotCompactsAndRestores(t *testing.T) {
	dir := t.TempDir()
	scn1, ds1 := buildPersistent(t, dir)
	sys := scn1.System

	served := 0
	for _, tr := range scn1.Data.Trips {
		if tr.Route.Empty() {
			continue
		}
		if _, err := sys.Recommend(context.Background(), Request{
			From: tr.Route.Source(), To: tr.Route.Dest(), Depart: tr.Depart,
		}); err == nil {
			served++
		}
		if served == 6 {
			if stats, err := sys.Snapshot(); err != nil {
				t.Fatal(err)
			} else if stats.Snapshots != 1 || stats.WALRecords != 0 {
				t.Fatalf("post-snapshot stats = %+v", stats)
			}
		}
		if served >= 10 {
			break
		}
	}
	if served < 10 {
		t.Fatalf("only %d trips served", served)
	}
	wantTruths := sys.TruthDB().Len()
	var wantRewards float64
	for _, w := range scn1.Pool.Workers {
		wantRewards += w.Reward
	}
	ds1.Close()

	scn2, ds2 := buildPersistent(t, dir)
	defer ds2.Close()
	if got := scn2.System.TruthDB().Len(); got != wantTruths {
		t.Fatalf("restored %d truths, want %d", got, wantTruths)
	}
	var gotRewards float64
	for _, w := range scn2.Pool.Workers {
		gotRewards += w.Reward
	}
	if gotRewards != wantRewards {
		t.Fatalf("restored reward total %v, want %v", gotRewards, wantRewards)
	}
}

// TestPendingTaskSurvivesRestart: an open async task is re-published after a
// restart at the question it was on, and can be driven to resolution.
func TestPendingTaskSurvivesRestart(t *testing.T) {
	dir := t.TempDir()
	scn1, ds1 := buildPersistent(t, dir)

	var ticket *PendingTask
	for _, tr := range scn1.Data.Trips {
		if tr.Route.Empty() {
			continue
		}
		_, p, err := scn1.System.RecommendAsync(context.Background(), Request{
			From: tr.Route.Source(), To: tr.Route.Dest(), Depart: tr.Depart,
		})
		if err == nil && p != nil {
			ticket = p
			break
		}
	}
	if ticket == nil {
		t.Skip("no trip needed the crowd in this scenario")
	}
	wantQ, ok := ticket.CurrentQuestion()
	if !ok {
		t.Fatal("published ticket has no open question")
	}
	ds1.Close()

	scn2, ds2 := buildPersistent(t, dir)
	defer ds2.Close()
	sys := scn2.System
	if got := sys.OpenTasks(); got != 1 {
		t.Fatalf("open tasks after restart = %d, want 1", got)
	}
	p, found := sys.PendingTask(ticket.ID)
	if !found {
		t.Fatalf("task %d not restored", ticket.ID)
	}
	gotQ, ok := p.CurrentQuestion()
	if !ok || gotQ != wantQ {
		t.Fatalf("restored task at question %v (ok=%v), want %v", gotQ, ok, wantQ)
	}
	if len(p.Assigned) != len(ticket.Assigned) {
		t.Fatalf("restored %d assigned workers, want %d", len(p.Assigned), len(ticket.Assigned))
	}
	// The re-claimed workers hold outstanding slots again.
	for _, r := range p.Assigned {
		if r.Worker.Outstanding == 0 {
			t.Fatalf("restored worker %v has no outstanding slot", r.Worker.ID)
		}
	}

	// Drive the restored task to resolution through the normal answer path.
	for i := 0; i < 64; i++ {
		state, _ := p.Status()
		if state != TaskOpen {
			break
		}
		var answered bool
		for _, r := range p.Assigned {
			if _, err := sys.SubmitAnswer(p.ID, r.Worker.ID, true); err == nil {
				answered = true
				break
			}
		}
		if !answered {
			t.Fatal("no assigned worker could answer the open question")
		}
	}
	state, result := p.Status()
	if state != TaskResolved || result == nil {
		t.Fatalf("restored task did not resolve: state=%v result=%v", state, result)
	}
	if sys.OpenTasks() != 0 {
		t.Fatalf("open tasks after resolution = %d", sys.OpenTasks())
	}
	// Resolution committed a truth for the task's OD+slot.
	if _, ok := sys.TruthDB().Lookup(p.Req.From, p.Req.To, p.Req.Depart); !ok {
		t.Fatal("resolved task stored no truth")
	}
}

// TestAppendErrorsAreAbsorbed: a dead backend must not fail requests; the
// failures are counted.
func TestAppendErrorsAreAbsorbed(t *testing.T) {
	dir := t.TempDir()
	ds, err := diskstore.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	cfg := SmallScenarioConfig()
	cfg.System.Store = ds
	scn := BuildScenario(cfg)
	ds.Close() // every append from now on fails

	var resp *Response
	for _, tr := range scn.Data.Trips {
		if tr.Route.Empty() {
			continue
		}
		if resp, err = scn.System.Recommend(context.Background(), Request{
			From: tr.Route.Source(), To: tr.Route.Dest(), Depart: tr.Depart,
		}); err == nil {
			break
		}
	}
	if err != nil || resp == nil {
		t.Fatalf("recommend with dead backend failed: %v", err)
	}
	if _, errs := scn.System.StoreStats(); errs == 0 {
		t.Fatal("append failures were not counted")
	}
}

// TestMismatchedWorldRejected: a data directory written by a different
// (larger) scenario must fail the load with a clear error instead of
// panicking in the spatial index or silently serving foreign truths.
func TestMismatchedWorldRejected(t *testing.T) {
	dir := t.TempDir()
	ds, err := diskstore.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	// A truth referencing node 1_000_000 — far outside any small world.
	if err := ds.AppendTruth(store.TruthRecord{
		From: 1_000_000, To: 2, Slot: 8, Nodes: []int32{1_000_000, 2}, Confidence: 0.9,
	}); err != nil {
		t.Fatal(err)
	}
	ds.Close()

	ds2, err := diskstore.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer ds2.Close()
	cfg := SmallScenarioConfig()
	cfg.System.Store = ds2
	scn := BuildScenario(cfg)
	if _, err := scn.System.LoadFromStore(context.Background()); err == nil {
		t.Fatal("loading a foreign world's data dir succeeded, want error")
	} else if !strings.Contains(err.Error(), "different scenario") {
		t.Fatalf("unhelpful error: %v", err)
	}
}

// TestInvalidPersistedTripRejected: a persisted trip that ingestion would
// have refused — a hop that is not a graph edge, fewer than 2 nodes, or a
// negative or non-finite departure — must fail the load with an error that
// names its sequence number, instead of entering the corpus.
func TestInvalidPersistedTripRejected(t *testing.T) {
	g := roadnet.Generate(SmallScenarioConfig().City)
	var far int32
	for b := 1; b < g.NumNodes(); b++ {
		if _, ok := g.FindEdge(0, roadnet.NodeID(b)); !ok {
			far = int32(b)
			break
		}
	}
	e := g.Edge(0)
	hop := []int32{int32(e.From), int32(e.To)}
	for _, tc := range []struct {
		name string
		rec  store.TrajRecord
	}{
		{"non-edge hop", store.TrajRecord{Nodes: []int32{0, far}, DepartMin: 480}},
		{"one node", store.TrajRecord{Nodes: []int32{3}, DepartMin: 480}},
		{"negative depart", store.TrajRecord{Nodes: hop, DepartMin: -1}},
		{"NaN depart", store.TrajRecord{Nodes: hop, DepartMin: math.NaN()}},
		{"infinite depart", store.TrajRecord{Nodes: hop, DepartMin: math.Inf(1)}},
		{"node out of range", store.TrajRecord{Nodes: []int32{0, int32(g.NumNodes())}, DepartMin: 480}},
	} {
		rec := tc.rec
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			ds, err := diskstore.Open(dir)
			if err != nil {
				t.Fatal(err)
			}
			good := store.TrajRecord{Seq: 0, Nodes: hop, DepartMin: 480}
			rec.Seq = 7
			if err := ds.AppendTrips([]store.TrajRecord{good, rec}); err != nil {
				t.Fatal(err)
			}
			ds.Close()

			ds2, err := diskstore.Open(dir)
			if err != nil {
				t.Fatal(err)
			}
			defer ds2.Close()
			cfg := SmallScenarioConfig()
			cfg.System.Store = ds2
			scn := BuildScenario(cfg)
			_, err = scn.System.LoadFromStore(context.Background())
			if err == nil || !strings.Contains(err.Error(), fmt.Sprintf("seq %d", rec.Seq)) {
				t.Fatalf("load error = %v, want one naming seq %d", err, rec.Seq)
			}
		})
	}
}

// TestWorldFingerprintRejected: a data directory pinned by one scenario is
// refused by a same-sized world generated from a different seed — node IDs
// line up, so only the fingerprint can tell them apart.
func TestWorldFingerprintRejected(t *testing.T) {
	dir := t.TempDir()
	_, ds1 := buildPersistent(t, dir) // pins the fingerprint
	ds1.Close()

	ds2, err := diskstore.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer ds2.Close()
	cfg := SmallScenarioConfig()
	cfg.City.Seed += 991 // same dimensions, different geometry
	cfg.System.Store = ds2
	scn := BuildScenario(cfg)
	if _, err := scn.System.LoadFromStore(context.Background()); err == nil {
		t.Fatal("foreign-seed world accepted a pinned data dir, want error")
	} else if !strings.Contains(err.Error(), "different world") {
		t.Fatalf("unhelpful error: %v", err)
	}
}

// TestIngestedTripsSurviveRestart is the ingestion acceptance test: trips
// streamed in via IngestTrips must ride the snapshot+WAL format — some
// compacted into a snapshot, some left in the WAL (the "kill -9" case) —
// and be visible to the miners after a restart.
func TestIngestedTripsSurviveRestart(t *testing.T) {
	dir := t.TempDir()
	scn1, ds1 := buildPersistent(t, dir)
	sys1 := scn1.System
	base := sys1.CorpusSize()

	ingest := func(sys *System, n int, shift float64) []traj.Trajectory {
		trips := cloneTrips(scn1, n, shift)
		rep := sys.IngestTrips(trips)
		if rep.Accepted != n {
			t.Fatalf("ingest accepted %d of %d: %+v", rep.Accepted, n, rep.Rejected)
		}
		return trips
	}
	// First wave, then a snapshot (compacts the wave into snapshot.cps),
	// then a second wave that only the WAL holds.
	first := ingest(sys1, 4, 45)
	if _, err := sys1.Snapshot(); err != nil {
		t.Fatal(err)
	}
	second := ingest(sys1, 3, 90)
	// Kill without a second snapshot.
	if err := ds1.Close(); err != nil {
		t.Fatal(err)
	}

	scn2, ds2 := buildPersistent(t, dir)
	defer ds2.Close()
	sys2 := scn2.System
	if got, want := sys2.CorpusSize(), base+len(first)+len(second); got != want {
		t.Fatalf("corpus after restart = %d, want %d", got, want)
	}
	st, _ := sys2.StoreStats()
	if st.LoadedTrips != len(first)+len(second) {
		t.Fatalf("loaded trips = %d, want %d", st.LoadedTrips, len(first)+len(second))
	}
	// The replayed trips are visible to the miner query path, in ingestion
	// order after the regenerated base corpus.
	restored := scn2.Data.IngestedTrips()
	if len(restored) != len(first)+len(second) {
		t.Fatalf("ingested tail = %d trips, want %d", len(restored), len(first)+len(second))
	}
	for i, want := range append(append([]traj.Trajectory{}, first...), second...) {
		if !restored[i].Route.Equal(want.Route) || restored[i].Depart != want.Depart || restored[i].Driver != want.Driver {
			t.Fatalf("restored trip %d = %+v, want %+v", i, restored[i], want)
		}
	}
	// Both waves count again in the aggregate the miners read, as many
	// times as they were ingested.
	tr := first[0]
	want := tripsAlong(scn1.Data, tr.Driver, tr.Route)
	if got := tripsAlong(scn2.Data, tr.Driver, tr.Route); got != want || got < 1 {
		t.Fatalf("after restart TripCounts sees %d trips along a replayed route, want %d", got, want)
	}

	// A second snapshot+restart round trip must not duplicate anything.
	if _, err := sys2.Snapshot(); err != nil {
		t.Fatal(err)
	}
	ds2.Close()
	scn3, ds3 := buildPersistent(t, dir)
	defer ds3.Close()
	if got, want := scn3.System.CorpusSize(), base+len(first)+len(second); got != want {
		t.Fatalf("corpus after second restart = %d, want %d (duplicated replay?)", got, want)
	}
}

// TestDiscardDefault: a nil Config.Store keeps state process-local — commits
// are counted for observability but nothing is retained.
func TestDiscardDefault(t *testing.T) {
	scn := BuildScenario(SmallScenarioConfig())
	stats, _ := scn.System.StoreStats()
	if stats.Backend != "none" {
		t.Fatalf("default backend = %q, want none", stats.Backend)
	}
	tr := scn.Data.Trips[0]
	if _, err := scn.System.Recommend(context.Background(), Request{
		From: tr.Route.Source(), To: tr.Route.Dest(), Depart: tr.Depart,
	}); err != nil {
		t.Fatal(err)
	}
	stats, _ = scn.System.StoreStats()
	if stats.TruthAppends == 0 {
		t.Fatal("truth commit was not logged to the backend")
	}
}
