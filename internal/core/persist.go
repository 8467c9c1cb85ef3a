package core

import (
	"context"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"

	"crowdplanner/internal/crowd"
	"crowdplanner/internal/landmark"
	"crowdplanner/internal/roadnet"
	"crowdplanner/internal/routing"
	"crowdplanner/internal/store"
	"crowdplanner/internal/task"
	"crowdplanner/internal/traj"
	"crowdplanner/internal/truth"
	"crowdplanner/internal/worker"
)

// This file is the bridge between the serving core and the storage layer
// (internal/store): commit logging as state mutates, full-state capture for
// snapshots, and boot-time restore. The core stays the runtime source of
// truth; the backend is a durability sink that replays into the core on the
// next boot.
//
// Locking contract: backend appends are NEVER made while holding mu or
// poolMu — Snapshot captures the state under those locks from inside the
// backend's append mutex, so an in-flight append holding one of them would
// deadlock. Paths that commit under a lock collect records into a walBatch
// and flush it after release; interleaving with a concurrent snapshot is
// safe because every record type replays idempotently (see internal/store).

// ---- commit logging ----
//
// The helpers tolerate a sick backend: an append failure is counted (and
// surfaced on /v1/health) but never fails the request — the in-memory state
// already committed, and refusing to serve because the disk hiccuped would
// invert the system's priorities.

func (s *System) logTruth(e truth.Entry) {
	if err := s.backend.AppendTruth(truthToRecord(e)); err != nil {
		s.appendErrs.Add(1)
	}
}

func (s *System) logWorkerEvents(events []crowd.RewardEvent) {
	if len(events) == 0 {
		return
	}
	evs := make([]store.WorkerEvent, len(events))
	for i, ev := range events {
		evs[i] = store.WorkerEvent{
			Worker: int32(ev.Worker), Landmark: int32(ev.Landmark), Correct: ev.Correct,
			RewardBalance: ev.Balance,
			TallyCorrect:  int32(ev.Tally.Correct), TallyWrong: int32(ev.Tally.Wrong),
		}
	}
	if err := s.backend.AppendWorkerEvents(evs); err != nil {
		s.appendErrs.Add(1)
	}
}

func (s *System) logTaskOpen(rec store.TaskRecord) {
	if err := s.backend.AppendTaskOpen(rec); err != nil {
		s.appendErrs.Add(1)
	}
}

// walBatch collects commit records produced while core locks are held; the
// caller flushes it after releasing them.
type walBatch struct {
	truths []truth.Entry
	events []crowd.RewardEvent
	decis  []taskDecision
	closes []int64
}

type taskDecision struct {
	id    int64
	index int
	yes   bool
}

// flushWAL appends the batch's records to the backend. Must be called with
// no core locks held.
func (s *System) flushWAL(b *walBatch) {
	s.logWorkerEvents(b.events)
	for _, d := range b.decis {
		if err := s.backend.AppendTaskDecision(d.id, d.index, d.yes); err != nil {
			s.appendErrs.Add(1)
		}
	}
	for _, e := range b.truths {
		s.logTruth(e)
	}
	for _, id := range b.closes {
		if err := s.backend.AppendTaskClose(id); err != nil {
			s.appendErrs.Add(1)
		}
	}
}

// ---- record conversions ----

func truthToRecord(e truth.Entry) store.TruthRecord {
	nodes := make([]int32, len(e.Route.Nodes))
	for i, n := range e.Route.Nodes {
		nodes[i] = int32(n)
	}
	return store.TruthRecord{
		From: int32(e.From), To: int32(e.To), Slot: int32(e.Slot),
		Nodes: nodes, Confidence: e.Confidence, Crowd: e.Crowd,
		StoredAtMin: float64(e.StoredAt),
	}
}

func recordToTruth(r store.TruthRecord) truth.Entry {
	nodes := make([]roadnet.NodeID, len(r.Nodes))
	for i, n := range r.Nodes {
		nodes[i] = roadnet.NodeID(n)
	}
	return truth.Entry{
		From: roadnet.NodeID(r.From), To: roadnet.NodeID(r.To), Slot: int(r.Slot),
		Route: roadnet.Route{Nodes: nodes}, Confidence: r.Confidence, Crowd: r.Crowd,
		StoredAt: routing.SimTime(r.StoredAtMin),
	}
}

// pendingToRecord captures an open task; the owner's mu must be held (or the
// task not yet shared).
func pendingToRecord(p *PendingTask) store.TaskRecord {
	rec := store.TaskRecord{
		ID: p.ID, From: int32(p.Req.From), To: int32(p.Req.To),
		DepartMin: float64(p.Req.Depart), DeadlineMin: p.Req.DeadlineMin,
		Decisions: append([]bool(nil), p.decisions...),
	}
	for _, r := range p.Assigned {
		rec.Assigned = append(rec.Assigned, int32(r.Worker.ID))
	}
	return rec
}

// ---- snapshot ----

// StoreStats reports the storage backend's counters plus the number of
// append failures the serving path absorbed. Surfaced on GET /v1/health.
func (s *System) StoreStats() (store.Stats, uint64) {
	return s.backend.Stats(), s.appendErrs.Load()
}

// Snapshot captures the system's full mutable state and persists it through
// the storage backend, which compacts its log. Safe to call while serving:
// the backend runs the capture inside its append mutex, so every concurrent
// commit either makes it into the snapshot (its log record compacted away)
// or lands in the fresh post-compaction log — never in the discarded one.
func (s *System) Snapshot() (store.Stats, error) {
	err := s.backend.Snapshot(s.captureState)
	st, _ := s.StoreStats()
	return st, err
}

func (s *System) captureState() *store.State {
	st := &store.State{}
	for _, e := range s.truth.Entries() {
		st.Truths = append(st.Truths, truthToRecord(e))
	}
	// Only the ingested stream is persisted; the generated base corpus is
	// rebuilt deterministically by BuildScenario on every boot. Trips keep
	// the sequence numbers they were first logged under, so snapshot and
	// stale-WAL copies of the same trip agree and the replay dedupe holds.
	st.Trips = tripsToRecordsSeqs(s.data.IngestedStream())

	s.mu.Lock()
	st.NextTaskID = s.nextTaskID
	//cplint:ordered-irrelevant -- store.State.FoldEvents sorts OpenTasks by ID before serializing
	for _, p := range s.pending {
		st.OpenTasks = append(st.OpenTasks, pendingToRecord(p))
	}
	s.mu.Unlock()

	s.poolMu.RLock()
	for _, w := range s.pool.Workers {
		ws := store.WorkerState{ID: int32(w.ID), Reward: w.Reward}
		//cplint:ordered-irrelevant -- store.State.FoldEvents sorts each worker's history by landmark before serializing
		for lm, h := range w.History {
			ws.History = append(ws.History, store.HistoryEntry{
				Landmark: int32(lm), Correct: int32(h.Correct), Wrong: int32(h.Wrong),
			})
		}
		st.Workers = append(st.Workers, ws)
	}
	s.poolMu.RUnlock()
	// The backend sorts workers/histories/tasks before serializing
	// (store.State.FoldEvents), so map iteration order above is immaterial.
	return st
}

// ---- restore ----

// LoadFromStore replays the backend's persisted state into the system:
// truths re-enter the (spatially indexed) truth database, worker rewards and
// answer histories are restored and folded into fresh familiarity matrices,
// and open async tasks are re-published at the question they were on.
// Call it after New and before serving; it is not safe to run concurrently
// with request traffic.
//
// Recovery semantics for open tasks: the task tree is regenerated
// deterministically from the substrates and the persisted branch decisions
// are replayed, so the task resumes at the question that was open when the
// process died. Answers to that in-flight question are not persisted — the
// question is simply re-asked (at-least-once question delivery). A task
// whose decision replay already reaches a leaf (crash between the final
// decision and the close record) resolves immediately, and its truth and
// closure are logged so the resolution is durable.
func (s *System) LoadFromStore(ctx context.Context) (store.Stats, error) {
	stats := func() store.Stats { st, _ := s.StoreStats(); return st }
	if v, ok := s.backend.(store.WorldVerifier); ok {
		if err := v.VerifyWorld(s.worldFingerprint()); err != nil {
			return stats(), err
		}
	}
	loaded, err := s.backend.Load()
	if err != nil {
		return stats(), err
	}
	if loaded == nil {
		return stats(), nil
	}
	if err := s.validateLoaded(loaded); err != nil {
		return stats(), err
	}

	for _, t := range loaded.Truths {
		s.truth.Store(recordToTruth(t))
	}

	// Replay the ingested trajectory stream into the corpus (and its mining
	// indexes) before any open-task restore regenerates candidates, so the
	// miners see the corpus as it stood at crash time. Load has already
	// ordered the records by sequence number and dropped duplicates; the
	// route cache is empty at boot, so no invalidation is needed, and the
	// records are already durable, so nothing is re-appended.
	if len(loaded.Trips) > 0 {
		trips := make([]traj.Trajectory, len(loaded.Trips))
		seqs := make([]int64, len(loaded.Trips))
		for i, r := range loaded.Trips {
			trips[i] = recordToTrip(r)
			seqs[i] = r.Seq
		}
		// RestoreTrips keeps the persisted sequence numbers and advances the
		// live counter past the highest, so post-replay ingestion never
		// reuses a number even when the stream has gaps.
		s.data.RestoreTrips(trips, seqs)
	}

	// Load returns folded state: Workers carry the final absolute values
	// (snapshot plus logged events), so restore is a plain overwrite.
	s.poolMu.Lock()
	for _, ws := range loaded.Workers {
		w := s.pool.Get(worker.ID(ws.ID))
		if w == nil {
			continue // registry shrank between runs; drop the orphan state
		}
		w.Reward = ws.Reward
		w.History = make(map[landmark.ID]worker.History, len(ws.History))
		for _, h := range ws.History {
			w.History[landmark.ID(h.Landmark)] = worker.History{Correct: int(h.Correct), Wrong: int(h.Wrong)}
		}
	}
	s.poolMu.Unlock()

	s.mu.Lock()
	if loaded.NextTaskID > s.nextTaskID {
		s.nextTaskID = loaded.NextTaskID
	}
	s.mu.Unlock()

	// Fold the restored histories into the familiarity matrices before any
	// task replay consults them.
	s.RefreshFamiliarity()

	for _, rec := range loaded.OpenTasks {
		batch, err := s.restoreTask(ctx, rec)
		if err != nil {
			return stats(), fmt.Errorf("core: restore task %d: %w", rec.ID, err)
		}
		// A task that resolved during replay commits its truth and closure
		// now, so the resolution is durable before serving starts.
		s.flushWAL(batch)
	}
	return stats(), nil
}

// worldFingerprint hashes the substrates that give persisted state its
// meaning — the graph's geometry and the trajectory corpus (which drives
// candidate and task regeneration) — so a durable backend can refuse a data
// directory written by a different scenario even when node-ID ranges line
// up (same city size, different seed).
func (s *System) worldFingerprint() uint64 {
	h := fnv.New64a()
	word := func(v uint64) {
		var b [8]byte
		binary.LittleEndian.PutUint64(b[:], v)
		h.Write(b[:])
	}
	word(uint64(s.graph.NumNodes()))
	word(uint64(s.graph.NumEdges()))
	for i := 0; i < s.graph.NumNodes(); i++ {
		pt := s.graph.Node(roadnet.NodeID(i)).Pt
		word(math.Float64bits(pt.X))
		word(math.Float64bits(pt.Y))
	}
	word(uint64(len(s.data.Trips)))
	for _, tr := range s.data.Trips {
		if tr.Route.Empty() {
			continue
		}
		word(uint64(tr.Route.Source()))
		word(uint64(tr.Route.Dest()))
		word(uint64(len(tr.Route.Nodes)))
	}
	word(uint64(s.landmarks.Len()))
	return h.Sum64()
}

// validateLoaded rejects persisted state that references nodes outside this
// world's graph, and trips that ingestion would have rejected — the
// signature of a data directory written by a different scenario. Failing
// loudly beats panicking in the spatial index or the corpus (or quietly
// serving someone else's truths).
func (s *System) validateLoaded(loaded *store.State) error {
	n := int32(s.graph.NumNodes())
	badNode := func(id int32) bool { return id < 0 || id >= n }
	for _, t := range loaded.Truths {
		bad := badNode(t.From) || badNode(t.To)
		for _, nd := range t.Nodes {
			bad = bad || badNode(nd)
		}
		if bad {
			return fmt.Errorf("core: persisted truth %d→%d references nodes outside this %d-node world; was the data directory written by a different scenario?", t.From, t.To, n)
		}
	}
	for _, t := range loaded.OpenTasks {
		if badNode(t.From) || badNode(t.To) {
			return fmt.Errorf("core: persisted task %d (%d→%d) references nodes outside this %d-node world; was the data directory written by a different scenario?", t.ID, t.From, t.To, n)
		}
	}
	// A trip must pass the checks ingestion applies: the corpus counts
	// footmarks per graph edge and cannot hold a hop that is not one.
	for _, r := range loaded.Trips {
		tr := recordToTrip(r)
		if reason := s.validateTrip(&tr); reason != "" {
			return fmt.Errorf("core: persisted trajectory (seq %d) would be rejected by ingestion: %s; was the data directory written by a different scenario?", r.Seq, reason)
		}
	}
	return nil
}

// restoreTask re-publishes one persisted open task: regenerate the
// candidates and the question tree (both deterministic for a fixed
// scenario), re-claim the assigned workers, and replay the recorded branch
// decisions. The returned batch carries the truth/close records of a task
// that resolved during replay; the caller flushes it.
func (s *System) restoreTask(ctx context.Context, rec store.TaskRecord) (*walBatch, error) {
	req := Request{
		From: roadnet.NodeID(rec.From), To: roadnet.NodeID(rec.To),
		Depart: routing.SimTime(rec.DepartMin), DeadlineMin: rec.DeadlineMin,
	}
	cands, err := s.generateCandidates(ctx, req)
	if err != nil {
		return nil, err
	}
	if len(cands) == 0 {
		return nil, ErrNoCandidates
	}
	merged := task.MergeIndistinguishable(cands)
	tk, err := task.Generate(rec.ID, s.landmarks, merged, s.cfg.Task)
	if err != nil {
		return nil, err
	}

	var assigned []worker.Ranked
	s.poolMu.Lock()
	for _, wid := range rec.Assigned {
		if w := s.pool.Get(worker.ID(wid)); w != nil {
			w.Outstanding++
			assigned = append(assigned, worker.Ranked{Worker: w})
		}
	}
	s.poolMu.Unlock()

	p := &PendingTask{
		ID: rec.ID, Req: req, Task: tk, Assigned: assigned,
		State: TaskOpen, node: tk.Tree, owner: s, published: true,
		answered: make(map[worker.ID]bool),
	}
	for _, yes := range rec.Decisions {
		if p.node == nil || p.node.IsLeaf() {
			break
		}
		p.decisions = append(p.decisions, yes)
		p.questionsUsed++
		if yes {
			p.node = p.node.Yes
		} else {
			p.node = p.node.No
		}
	}

	batch := &walBatch{}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.pending == nil {
		s.pending = make(map[int64]*PendingTask)
	}
	s.pending[rec.ID] = p
	if p.node == nil || p.node.IsLeaf() {
		s.finishPending(p, TaskResolved, 0, batch)
	}
	return batch, nil
}
