package diskstore

import (
	"encoding/binary"
	"hash/crc32"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"testing"

	"crowdplanner/internal/store"
)

// FuzzReplay feeds recovery arbitrary bytes, four ways: as a WAL file, as
// CRC-valid WAL records around arbitrary payloads, as a snapshot (raw and
// with a valid checksum), and as a script of valid records appended through
// a Store followed by an arbitrary tail. Recovery must never panic, must
// report a valid prefix inside the input, must replay that prefix again to
// the same state without truncation, and must recover exactly the records
// written — no phantom records, no lost worker state.
//
// The committed corpus under testdata/fuzz/FuzzReplay holds a header-only
// WAL, a WAL with one record of each type, the same WAL with a torn tail,
// and with one CRC byte flipped; the seeds below add scripts.
func FuzzReplay(f *testing.F) {
	// Scripts: no records; then one record of each type, in type order, with
	// a torn tail. The worker events name worker 0, then 1, then 0 again, so
	// one fold must let the later event for worker 0 win.
	f.Add([]byte{0})
	f.Add([]byte{6,
		0, 3, 9, 8, 2, 1, 4, 2, 3, 9,
		1, 2, 0, 1, 1, 4, 1, 0, 1, 1, 1, 8, 1, 0, 0, 1, 1, 12, 2, 0,
		2, 1, 3, 9, 8, 0, 2, 5, 6, 1, 1,
		3, 1, 1, 1,
		4, 2,
		5, 1, 1, 4, 8, 1, 3, 1, 5, 0, 0,
		1, 0, 0, 0})
	// Framed: a CRC-valid decision at position 2^32-1 for an open task.
	openTask := encodeTask(nil, store.TaskRecord{ID: 1})
	decision := putBool(putU32(putI64(nil, 1), 0xFFFFFFFF), true)
	f.Add(append(append([]byte{recTaskOpen - 1, byte(len(openTask))}, openTask...),
		append([]byte{recTaskDecision - 1, byte(len(decision))}, decision...)...))
	f.Fuzz(func(t *testing.T, data []byte) {
		checkReplay(t, data)
		checkReplay(t, frameAll(data))
		_ = decodeSnapshot(data, &store.State{}, map[int64]*store.TaskRecord{})
		_ = decodeSnapshot(snapshotOf(data), &store.State{}, map[int64]*store.TaskRecord{})
		checkRecovery(t, data)
	})
}

// replay runs replayWAL over wal into a fresh state.
func replay(wal []byte) (st *store.State, open map[int64]*store.TaskRecord, records uint64, validLen int64, truncated bool, err error) {
	st, open = &store.State{}, map[int64]*store.TaskRecord{}
	records, validLen, truncated, err = (*Store)(nil).replayWAL(wal, st, open)
	return st, open, records, validLen, truncated, err
}

// checkReplay asserts the replay contract on one WAL image: the valid prefix
// lies inside it, and replaying exactly that prefix gives the same records
// and state without truncation. A file shorter than its header replays
// nothing and reports it torn at its own length (Open rewrites the header
// before any Load sees such a file).
func checkReplay(t *testing.T, wal []byte) {
	t.Helper()
	st, open, records, validLen, truncated, err := replay(wal)
	if validLen < 0 || validLen > int64(len(wal)) {
		t.Fatalf("validLen %d outside [0, %d]", validLen, len(wal))
	}
	if len(wal) < 8 {
		if records != 0 || !truncated || err != nil {
			t.Fatalf("short WAL: records %d, truncated %v, err %v", records, truncated, err)
		}
		return
	}
	if err != nil {
		return
	}
	st2, open2, records2, validLen2, truncated2, err2 := replay(wal[:validLen])
	if err2 != nil || records2 != records || validLen2 != validLen || truncated2 {
		t.Fatalf("replaying the valid prefix: records %d→%d, validLen %d→%d, truncated %v, err %v",
			records, records2, validLen, validLen2, truncated2, err2)
	}
	if !reflect.DeepEqual(st, st2) || !reflect.DeepEqual(open, open2) {
		t.Fatalf("replaying the valid prefix changed the state:\n%+v %v\n%+v %v", st, open, st2, open2)
	}
}

// frameAll turns data into a WAL of CRC-valid records with arbitrary
// payloads: each record takes a type byte (1-6) and a length byte.
func frameAll(data []byte) []byte {
	wal := walHeader()
	for len(data) >= 2 {
		typ, n := data[0]%6+1, min(int(data[1]), len(data)-2)
		rec := append([]byte{typ}, data[2:2+n]...)
		wal = append(wal, typ)
		wal = binary.LittleEndian.AppendUint32(wal, uint32(n))
		wal = append(wal, rec[1:]...)
		wal = binary.LittleEndian.AppendUint32(wal, crc32.ChecksumIEEE(rec))
		data = data[2+n:]
	}
	return wal
}

func walHeader() []byte {
	return binary.LittleEndian.AppendUint16(append([]byte(nil), walMagic[:]...), formatVersion)
}

// snapshotOf wraps data as a snapshot payload with a valid header and CRC.
func snapshotOf(data []byte) []byte {
	snap := binary.LittleEndian.AppendUint16(append([]byte(nil), snapshotMagic[:]...), formatVersion)
	snap = append(snap, data...)
	return binary.LittleEndian.AppendUint32(snap, crc32.ChecksumIEEE(data))
}

// gen draws small record fields from fuzz bytes, yielding zeros once the
// bytes run out. Small ranges make IDs collide, which is where replay
// semantics (replace, fold, dedupe) are exercised.
type gen struct{ b []byte }

func (g *gen) byte() byte {
	if len(g.b) == 0 {
		return 0
	}
	v := g.b[0]
	g.b = g.b[1:]
	return v
}
func (g *gen) small(n byte) int32 { return int32(g.byte() % n) }
func (g *gen) i32() int32         { return int32(int8(g.byte())) }
func (g *gen) f64() float64       { return float64(int8(g.byte())) / 4 }
func (g *gen) flag() bool         { return g.byte()&1 == 1 }
func (g *gen) list(n byte) []int32 {
	var out []int32
	for range g.byte() % n {
		out = append(out, g.i32())
	}
	return out
}

// checkRecovery appends the valid records data scripts through a Store,
// adds the unread bytes as a raw tail, and loads the directory: the state
// must be exactly what the records describe, and the tail may add only what
// it parses to on its own.
func checkRecovery(t *testing.T, data []byte) {
	t.Helper()
	dir := t.TempDir()
	s, err := Open(dir, WithoutSync())
	if err != nil {
		t.Fatal(err)
	}
	var m model
	g := &gen{b: data}
	n := int(g.byte() % 16)
	for range n {
		switch typ := g.byte()%6 + 1; typ {
		case recTruth:
			r := store.TruthRecord{From: g.i32(), To: g.i32(), Slot: g.i32(), Confidence: g.f64(),
				Crowd: g.flag(), StoredAtMin: g.f64(), Nodes: g.list(4)}
			err = s.AppendTruth(r)
			m.truths = append(m.truths, r)
		case recWorkerEvents:
			var evs []store.WorkerEvent
			for range g.small(4) + 1 {
				evs = append(evs, store.WorkerEvent{Worker: g.small(4), Landmark: g.small(4), Correct: g.flag(),
					RewardBalance: g.f64(), TallyCorrect: g.i32(), TallyWrong: g.i32()})
			}
			err = s.AppendWorkerEvents(evs)
			m.events = append(m.events, evs...)
		case recTaskOpen:
			r := store.TaskRecord{ID: int64(g.small(4)), From: g.i32(), To: g.i32(), DepartMin: g.f64(),
				DeadlineMin: g.f64(), Assigned: g.list(3)}
			for range g.small(3) {
				r.Decisions = append(r.Decisions, g.flag())
			}
			err = s.AppendTaskOpen(r)
			m.open(r)
		case recTaskDecision:
			id, index, yes := int64(g.small(4)), int(g.byte()), g.flag()
			err = s.AppendTaskDecision(id, index, yes)
			m.decide(id, index, yes)
		case recTaskClose:
			id := int64(g.small(4))
			err = s.AppendTaskClose(id)
			m.close(id)
		case recTrips:
			var recs []store.TrajRecord
			for range g.small(3) + 1 {
				recs = append(recs, store.TrajRecord{Seq: int64(g.small(4)), Driver: g.i32(), DepartMin: g.f64(), Nodes: g.list(4)})
			}
			err = s.AppendTrips(recs)
			m.trips = append(m.trips, recs...)
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	s.Close()
	tail := g.b
	walPath := filepath.Join(dir, walName)
	f, err := os.OpenFile(walPath, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(tail); err != nil {
		t.Fatal(err)
	}
	f.Close()

	// The tail parses the same after the written records as after a bare
	// header, so it must account for every record beyond the n written.
	_, _, tailRecords, _, tailTorn, tailErr := replay(append(walHeader(), tail...))
	s, err = Open(dir, WithoutSync())
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	got, err := s.Load()
	if tailErr != nil {
		if err == nil {
			t.Fatalf("tail fails to replay (%v) but Load succeeded", tailErr)
		}
		return
	}
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	stats := s.Stats()
	if stats.WALRecords != uint64(n)+tailRecords || stats.Truncated != tailTorn {
		t.Fatalf("Load recovered %d records (truncated %v), want %d written + %d from the tail (truncated %v)",
			stats.WALRecords, stats.Truncated, n, tailRecords, tailTorn)
	}
	fi, err := os.Stat(walPath)
	if err != nil {
		t.Fatal(err)
	}
	if fi.Size() != stats.WALBytes {
		t.Fatalf("WAL not cut back to its valid prefix: size %d, valid %d", fi.Size(), stats.WALBytes)
	}
	if tailRecords == 0 {
		if want := m.state(n); !reflect.DeepEqual(got, want) {
			t.Fatalf("recovered state differs from the records written:\ngot  %+v\nwant %+v", got, want)
		}
	}

	// Recovery is idempotent: a second load of the cut file reads the same
	// state and finds nothing torn.
	s.Close()
	s2, err := Open(dir, WithoutSync())
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	again, err := s2.Load()
	if err != nil || s2.Stats().Truncated || !reflect.DeepEqual(again, got) {
		t.Fatalf("second load: err %v, truncated %v, state changed %v", err, s2.Stats().Truncated, !reflect.DeepEqual(again, got))
	}
}

// model is the reference for what Load must return after the records it was
// fed: written independently of the decoder and of State.FoldEvents.
type model struct {
	truths []store.TruthRecord
	events []store.WorkerEvent
	trips  []store.TrajRecord
	tasks  map[int64]*store.TaskRecord
	nextID int64
}

func (m *model) open(r store.TaskRecord) {
	if m.tasks == nil {
		m.tasks = map[int64]*store.TaskRecord{}
	}
	m.tasks[r.ID] = &r
	m.nextID = max(m.nextID, r.ID)
}

func (m *model) decide(id int64, index int, yes bool) {
	if t := m.tasks[id]; t != nil {
		for len(t.Decisions) <= index {
			t.Decisions = append(t.Decisions, false)
		}
		t.Decisions[index] = yes
	}
}

func (m *model) close(id int64) { delete(m.tasks, id) }

// state folds the model after n records the way Load documents: worker
// events set absolute values (later wins), workers sort by ID and histories
// by landmark, open tasks sort by ID, trips sort by Seq keeping the first of
// each. No records and no snapshot load as nil.
func (m *model) state(n int) *store.State {
	if n == 0 {
		return nil
	}
	st := &store.State{NextTaskID: m.nextID, Truths: m.truths}
	type tally struct{ c, w int32 }
	reward := map[int32]float64{}
	hist := map[int32]map[int32]tally{}
	for _, ev := range m.events {
		reward[ev.Worker] = ev.RewardBalance
		if hist[ev.Worker] == nil {
			hist[ev.Worker] = map[int32]tally{}
		}
		hist[ev.Worker][ev.Landmark] = tally{ev.TallyCorrect, ev.TallyWrong}
	}
	for id, h := range hist {
		w := store.WorkerState{ID: id, Reward: reward[id]}
		for lm, tl := range h {
			w.History = append(w.History, store.HistoryEntry{Landmark: lm, Correct: tl.c, Wrong: tl.w})
		}
		sort.Slice(w.History, func(i, j int) bool { return w.History[i].Landmark < w.History[j].Landmark })
		st.Workers = append(st.Workers, w)
	}
	sort.Slice(st.Workers, func(i, j int) bool { return st.Workers[i].ID < st.Workers[j].ID })
	for _, t := range m.tasks {
		st.OpenTasks = append(st.OpenTasks, *t)
	}
	sort.Slice(st.OpenTasks, func(i, j int) bool { return st.OpenTasks[i].ID < st.OpenTasks[j].ID })
	trips := append([]store.TrajRecord(nil), m.trips...)
	sort.SliceStable(trips, func(i, j int) bool { return trips[i].Seq < trips[j].Seq })
	for i, tr := range trips {
		if i == 0 || tr.Seq != trips[i-1].Seq {
			st.Trips = append(st.Trips, tr)
		}
	}
	return st
}
