// Package store defines CrowdPlanner's pluggable storage layer: narrow
// persistence interfaces for the system's mutable state — verified truths,
// worker registry mutations (reward balances, answer histories) and pending
// crowd tasks — decoupled from the in-memory structures that serve requests.
//
// The serving core remains the source of truth at runtime; a Store is a
// durability sink and boot-time source. Writes are logged *as they commit*
// (write-ahead semantics for the next restart, not a transaction layer), a
// Snapshot captures the full state and lets the backend compact its log, and
// Load replays snapshot + log into a State the core re-applies on boot.
//
// Two backends implement the contract: Discard (process-local; appends are
// counted and nothing is retained, so state evaporates with the process)
// and diskstore (snapshot + append-only WAL with a versioned on-disk
// format, CRC-guarded records and fsync'd appends).
//
// Record types use plain integers and floats rather than the domain types of
// the truth/worker/task packages: the storage layer owns its wire vocabulary
// so on-disk compatibility does not ride on in-memory refactors.
package store

import (
	"sort"
	"sync"
)

// TruthRecord is the persisted form of one verified truth.
type TruthRecord struct {
	From, To    int32
	Slot        int32
	Nodes       []int32 // the verified route's node sequence
	Confidence  float64
	Crowd       bool
	StoredAtMin float64 // simulated departure time, minutes since Monday 00:00
}

// TrajRecord is the persisted form of one ingested trajectory. Seq is the
// trip's position in the ingestion stream (0-based, assigned by the corpus
// under its write lock): replay orders records by Seq and drops duplicates,
// so a record that survives in the WAL after a concurrent snapshot already
// captured it re-applies harmlessly — the same idempotence contract as every
// other record type.
type TrajRecord struct {
	Seq       int64
	Driver    int32
	DepartMin float64 // simulated departure time, minutes since Monday 00:00
	Nodes     []int32 // the map-matched route's node sequence
}

// WorkerEvent is one committed mutation of a worker's mutable state: an
// answer recorded against a landmark together with the reward it earned.
// Events carry the *absolute* post-event state (reward balance and the
// landmark's answer tally), not deltas: replaying an event is idempotent, so
// a record that survives in the log after a concurrent snapshot already
// folded it re-applies harmlessly instead of double-counting.
type WorkerEvent struct {
	Worker   int32
	Landmark int32
	Correct  bool // whether this answer was judged correct (observability)
	// Post-event absolute state.
	RewardBalance            float64
	TallyCorrect, TallyWrong int32
}

// WorkerState is a worker's full mutable state at snapshot time.
type WorkerState struct {
	ID      int32
	Reward  float64
	History []HistoryEntry // sorted by Landmark for deterministic serialization
}

// HistoryEntry is one worker's answer tally for one landmark.
type HistoryEntry struct {
	Landmark       int32
	Correct, Wrong int32
}

// TaskRecord captures an open asynchronous crowd task well enough to
// re-publish it after a restart: the originating request, the assigned
// workers, and the yes/no branch decisions already taken down the question
// tree (decision log records carry their index, so replay is idempotent).
// The task itself (candidates, tree) is regenerated deterministically from
// the substrates; answers to the question in flight at crash time are not
// persisted — the current question is simply re-asked (at-least-once
// question semantics, see DESIGN.md).
type TaskRecord struct {
	ID          int64
	From, To    int32
	DepartMin   float64
	DeadlineMin float64
	Assigned    []int32
	Decisions   []bool
}

// State is the full persisted state handed between the core and a Store:
// Snapshot consumes one, Load produces one.
//
// On Load, Truths holds every committed truth in commit order (later entries
// supersede earlier ones for the same key), Workers holds the final absolute
// per-worker state (snapshot plus logged events, folded via FoldEvents), and
// OpenTasks holds the still-open tasks with their decision prefixes folded
// in. WorkerEvents only carries unfolded events transiently inside backends.
type State struct {
	NextTaskID   int64
	Truths       []TruthRecord
	Workers      []WorkerState
	WorkerEvents []WorkerEvent
	OpenTasks    []TaskRecord
	// Trips holds the ingested trajectory stream. On Load the order is
	// snapshot-then-WAL; consumers sort by Seq and dedupe (see TrajRecord).
	Trips []TrajRecord
}

// FoldEvents merges WorkerEvents into Workers and clears the event list,
// producing the absolute worker states a snapshot persists. Events carry
// absolute post-state, so folding sets values (in event order; later wins).
// Workers are sorted by ID and histories by landmark, so folding is
// deterministic.
func (s *State) FoldEvents() {
	if len(s.WorkerEvents) == 0 {
		s.sortWorkers()
		return
	}
	// Indices, not pointers: appending a new worker may move the slice,
	// and an event through a stale pointer would be lost.
	byID := make(map[int32]int, len(s.Workers))
	for i := range s.Workers {
		byID[s.Workers[i].ID] = i
	}
	for _, ev := range s.WorkerEvents {
		wi, ok := byID[ev.Worker]
		if !ok {
			wi = len(s.Workers)
			s.Workers = append(s.Workers, WorkerState{ID: ev.Worker})
			byID[ev.Worker] = wi
		}
		w := &s.Workers[wi]
		w.Reward = ev.RewardBalance
		hi := -1
		for i := range w.History {
			if w.History[i].Landmark == ev.Landmark {
				hi = i
				break
			}
		}
		if hi < 0 {
			w.History = append(w.History, HistoryEntry{Landmark: ev.Landmark})
			hi = len(w.History) - 1
		}
		w.History[hi].Correct = ev.TallyCorrect
		w.History[hi].Wrong = ev.TallyWrong
	}
	s.WorkerEvents = nil
	s.sortWorkers()
}

// SetDecision writes a task decision at its 0-based position, growing the
// slice as needed — the idempotent primitive diskstore's replay applies.
func SetDecision(decisions []bool, index int, yes bool) []bool {
	if index < 0 {
		return decisions
	}
	for len(decisions) <= index {
		decisions = append(decisions, false)
	}
	decisions[index] = yes
	return decisions
}

func (s *State) sortWorkers() {
	sort.Slice(s.Workers, func(i, j int) bool { return s.Workers[i].ID < s.Workers[j].ID })
	for i := range s.Workers {
		h := s.Workers[i].History
		sort.Slice(h, func(a, b int) bool { return h[a].Landmark < h[b].Landmark })
	}
	sort.Slice(s.OpenTasks, func(i, j int) bool { return s.OpenTasks[i].ID < s.OpenTasks[j].ID })
	sort.SliceStable(s.Trips, func(i, j int) bool { return s.Trips[i].Seq < s.Trips[j].Seq })
}

// DedupeTrips sorts Trips by Seq and drops duplicate sequence numbers
// (keeping the first occurrence — snapshot copies precede re-replayed WAL
// copies of the same trip). Backends call it on Load so consumers always see
// each ingested trip exactly once, in ingestion order.
func (s *State) DedupeTrips() {
	if len(s.Trips) == 0 {
		return
	}
	sort.SliceStable(s.Trips, func(i, j int) bool { return s.Trips[i].Seq < s.Trips[j].Seq })
	out := s.Trips[:1]
	for _, t := range s.Trips[1:] {
		if t.Seq != out[len(out)-1].Seq {
			out = append(out, t)
		}
	}
	s.Trips = out
}

// TruthLog persists truth commits.
type TruthLog interface {
	// AppendTruth logs one committed truth. Implementations must not call
	// back into the core.
	AppendTruth(TruthRecord) error
}

// WorkerLog persists worker-state mutations.
type WorkerLog interface {
	// AppendWorkerEvents logs a batch of committed answer/reward events
	// (typically one crowd question's worth).
	AppendWorkerEvents([]WorkerEvent) error
}

// TrajLog persists the ingested-trajectory stream.
type TrajLog interface {
	// AppendTrips logs a batch of ingested trajectories (already validated
	// by the core). Implementations must not call back into the core.
	AppendTrips([]TrajRecord) error
}

// TaskLog persists the asynchronous task lifecycle.
type TaskLog interface {
	// AppendTaskOpen logs publication of a pending task (Decisions empty).
	AppendTaskOpen(TaskRecord) error
	// AppendTaskDecision logs the yes/no branch taken at decision position
	// `index` (0-based) of the task's tree walk. Carrying the index makes
	// replay idempotent: a record re-applied on top of a snapshot that
	// already folded it sets the same slot to the same value.
	AppendTaskDecision(id int64, index int, yes bool) error
	// AppendTaskClose logs that the task resolved or expired; its truth (if
	// any) is logged separately through AppendTruth.
	AppendTaskClose(id int64) error
}

// Store is the full storage backend contract.
//
// Appends must be called without holding any lock the Snapshot capture
// callback acquires: backends run the callback inside their own append
// mutex (so a commit is either fully captured and compacted, or lands in
// the post-compaction log), which would deadlock if an in-flight append
// held a lock the capture needs.
type Store interface {
	TruthLog
	WorkerLog
	TaskLog
	TrajLog

	// Load reads the persisted state, folded (FoldEvents already applied, so
	// WorkerEvents is empty and Workers carry the final absolute values). It
	// returns (nil, nil) when the backend holds no state (first boot).
	Load() (*State, error)
	// Snapshot atomically captures the state via the callback and durably
	// persists it, compacting any log. The callback runs under the
	// backend's append mutex, so no append can slip between the capture and
	// the compaction (which would lose it). The store owns the returned
	// State afterwards.
	Snapshot(capture func() *State) error
	// Stats reports backend counters for observability.
	Stats() Stats
	// Close releases backend resources. Appends after Close are errors.
	Close() error
}

// WorldVerifier is optionally implemented by backends that can pin the
// world (scenario) their storage was written by. The core calls VerifyWorld
// with a fingerprint of the current substrates before replaying: a backend
// seeing the fingerprint for the first time records it; a mismatch with the
// recorded one is an error — replaying another world's truths and task
// decisions would serve wrong routes as crowd-verified.
type WorldVerifier interface {
	VerifyWorld(fingerprint uint64) error
}

// Discard returns the backend used when no Store is configured: appends are
// counted for observability but nothing is retained. There is nothing to
// restore in a process-local deployment, so retaining records would only
// grow memory without bound in long-lived servers and benchmarks.
func Discard() Store {
	return &discard{stats: Stats{Backend: "none"}}
}

type discard struct {
	mu sync.Mutex
	//cplint:guardedby mu
	stats Stats
}

func (d *discard) count(f func(*Stats)) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	f(&d.stats)
	return nil
}

func (d *discard) AppendTruth(TruthRecord) error {
	return d.count(func(s *Stats) { s.TruthAppends++ })
}

func (d *discard) AppendWorkerEvents(evs []WorkerEvent) error {
	return d.count(func(s *Stats) { s.WorkerEvents += uint64(len(evs)) })
}

func (d *discard) AppendTrips(recs []TrajRecord) error {
	return d.count(func(s *Stats) { s.TrajAppends += uint64(len(recs)) })
}

func (d *discard) AppendTaskOpen(TaskRecord) error {
	return d.count(func(s *Stats) { s.TaskEvents++ })
}

func (d *discard) AppendTaskDecision(int64, int, bool) error {
	return d.count(func(s *Stats) { s.TaskEvents++ })
}

func (d *discard) AppendTaskClose(int64) error {
	return d.count(func(s *Stats) { s.TaskEvents++ })
}

func (d *discard) Load() (*State, error) { return nil, nil }

func (d *discard) Snapshot(func() *State) error {
	// Nothing to persist; counting keeps the admin endpoint observable.
	return d.count(func(s *Stats) { s.Snapshots++ })
}

func (d *discard) Stats() Stats {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.stats
}

func (d *discard) Close() error { return nil }

// Stats are backend observability counters, surfaced on GET /v1/health.
type Stats struct {
	Backend string `json:"backend"`
	// Appends since process start.
	TruthAppends  uint64 `json:"truth_appends"`
	WorkerEvents  uint64 `json:"worker_events"`
	TaskEvents    uint64 `json:"task_events"`
	TrajAppends   uint64 `json:"traj_appends"` // ingested trips logged
	Snapshots     uint64 `json:"snapshots"`
	WALRecords    uint64 `json:"wal_records"` // records currently in the live log
	WALBytes      int64  `json:"wal_bytes"`
	LoadedTruths  int    `json:"loaded_truths"`
	LoadedWorkers int    `json:"loaded_workers"`
	LoadedTasks   int    `json:"loaded_tasks"`
	LoadedTrips   int    `json:"loaded_trips"`
	// Truncated reports that Load hit a torn or corrupt record tail in the
	// WAL and recovered the valid prefix (expected after a crash mid-append).
	Truncated bool `json:"wal_truncated,omitempty"`
}
