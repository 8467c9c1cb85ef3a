// Package diskstore is the durable storage backend: a full snapshot file
// plus an append-only write-ahead log, both in a single data directory.
//
// On-disk layout:
//
//	<dir>/snapshot.cps  — full state at the last snapshot
//	<dir>/wal.cpl       — every commit since that snapshot
//
// Both files open with an 8-byte versioned header (6 magic bytes + a
// little-endian uint16 format version) so future migrations can detect and
// convert old formats. The snapshot payload carries a CRC32 trailer; every
// WAL record is [type:1][len:4][payload][crc32(type+payload):4]. All
// multi-byte integers are little-endian.
//
// Durability: appends are written in one write(2) and fsync'd by default
// (see WithoutSync); snapshots are written to a temp file, fsync'd, and
// atomically renamed, after which the WAL is atomically replaced by an empty
// one (compaction). A crash mid-append leaves a torn final record; Load
// detects it via length/CRC and recovers the valid prefix, reporting
// Stats.Truncated. Snapshots capture the state inside the append mutex, so
// a concurrent commit either makes it into the snapshot (and its record is
// compacted away) or lands in the fresh post-compaction WAL — never in the
// discarded one. A crash between the snapshot rename and the WAL reset
// replays already-snapshotted records on top of the snapshot, which is
// harmless because every record type replays idempotently: truths are
// replace-on-key, worker events carry absolute post-state, task decisions
// carry their position, and task open/close are map put/delete.
//
// Serialization is deterministic: workers sort by ID, histories by landmark,
// open tasks by task ID, and no timestamps or sequence numbers enter the
// payload — snapshotting the same State twice yields byte-identical files,
// which the determinism tests pin down.
package diskstore

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sync"

	"crowdplanner/internal/store"
)

const (
	snapshotName = "snapshot.cps"
	walName      = "wal.cpl"
	worldName    = "world.cpw"

	// formatVersion is what new files are written with. Version 2 added the
	// ingested-trajectory stream (a trips section in the snapshot, the
	// recTrips WAL record). Version-1 files remain readable: they simply
	// carry no trips.
	formatVersion    = 2
	minFormatVersion = 1
)

var (
	snapshotMagic = [6]byte{'C', 'P', 'S', 'N', 'A', 'P'}
	walMagic      = [6]byte{'C', 'P', 'W', 'A', 'L', 0}
	worldMagic    = [6]byte{'C', 'P', 'W', 'R', 'L', 'D'}
)

// maxDecisions bounds a task's decision positions on replay. A task asks
// one question per level of its task tree, a handful in practice; a larger
// position is corruption, and growing the decision list to it could
// allocate gigabytes.
const maxDecisions = 1 << 10

// WAL record types.
const (
	recTruth        = byte(1)
	recWorkerEvents = byte(2)
	recTaskOpen     = byte(3)
	recTaskDecision = byte(4)
	recTaskClose    = byte(5)
	recTrips        = byte(6) // format version 2: a batch of ingested trajectories
)

// Store is a disk-backed store.Store. It is safe for concurrent use.
type Store struct {
	dir  string
	sync bool

	mu sync.Mutex
	//cplint:guardedby mu
	wal *os.File
	//cplint:guardedby mu
	closed bool
	//cplint:guardedby mu
	stats store.Stats
}

// Option configures a Store.
type Option func(*Store)

// WithoutSync disables the fsync after each append (snapshots still sync).
// Throughput rises at the cost of losing the last few commits on power
// failure; crash consistency (torn-record recovery) is unaffected.
func WithoutSync() Option { return func(s *Store) { s.sync = false } }

// Open creates or opens the data directory and its WAL.
func Open(dir string, opts ...Option) (*Store, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("diskstore: create dir: %w", err)
	}
	s := &Store{dir: dir, sync: true, stats: store.Stats{Backend: "disk"}}
	for _, o := range opts {
		o(s)
	}
	wal, size, err := openWAL(filepath.Join(dir, walName))
	if err != nil {
		return nil, err
	}
	s.wal = wal
	s.stats.WALBytes = size
	return s, nil
}

// openWAL opens the log for appending, writing the header if the file is new
// (or empty, e.g. after a crash between create and header write).
func openWAL(path string) (*os.File, int64, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return nil, 0, fmt.Errorf("diskstore: open wal: %w", err)
	}
	fi, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, 0, fmt.Errorf("diskstore: stat wal: %w", err)
	}
	size := fi.Size()
	if size < int64(len(walMagic))+2 {
		if err := writeHeader(f, walMagic); err != nil {
			f.Close()
			return nil, 0, err
		}
		size = int64(len(walMagic)) + 2
	}
	if _, err := f.Seek(0, io.SeekEnd); err != nil {
		f.Close()
		return nil, 0, fmt.Errorf("diskstore: seek wal: %w", err)
	}
	return f, size, nil
}

func writeHeader(w io.Writer, magic [6]byte) error {
	var hdr [8]byte
	copy(hdr[:], magic[:])
	binary.LittleEndian.PutUint16(hdr[6:], formatVersion)
	if _, err := w.Write(hdr[:]); err != nil {
		return fmt.Errorf("diskstore: write header: %w", err)
	}
	return nil
}

// checkHeader validates magic and version and returns the file's format
// version (any in [minFormatVersion, formatVersion] is readable).
func checkHeader(data []byte, magic [6]byte, what string) (uint16, error) {
	if len(data) < 8 {
		return 0, fmt.Errorf("diskstore: %s: short header (%d bytes)", what, len(data))
	}
	for i, b := range magic {
		if data[i] != b {
			return 0, fmt.Errorf("diskstore: %s: bad magic %q", what, data[:6])
		}
	}
	v := binary.LittleEndian.Uint16(data[6:8])
	if v < minFormatVersion || v > formatVersion {
		return 0, fmt.Errorf("diskstore: %s: unsupported format version %d (want %d..%d)", what, v, minFormatVersion, formatVersion)
	}
	return v, nil
}

var errClosed = errors.New("diskstore: store is closed")

// append writes one WAL record: [type][len][payload][crc].
func (s *Store) append(typ byte, payload []byte) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return errClosed
	}
	rec := make([]byte, 0, 1+4+len(payload)+4)
	rec = append(rec, typ)
	rec = binary.LittleEndian.AppendUint32(rec, uint32(len(payload)))
	rec = append(rec, payload...)
	crc := crc32.NewIEEE()
	crc.Write([]byte{typ})
	crc.Write(payload)
	rec = binary.LittleEndian.AppendUint32(rec, crc.Sum32())
	if _, err := s.wal.Write(rec); err != nil {
		return fmt.Errorf("diskstore: append: %w", err)
	}
	if s.sync {
		if err := s.wal.Sync(); err != nil {
			return fmt.Errorf("diskstore: sync: %w", err)
		}
	}
	s.stats.WALBytes += int64(len(rec))
	s.stats.WALRecords++
	return nil
}

// AppendTruth implements store.TruthLog.
func (s *Store) AppendTruth(r store.TruthRecord) error {
	if err := s.append(recTruth, encodeTruth(nil, r)); err != nil {
		return err
	}
	s.mu.Lock()
	s.stats.TruthAppends++
	s.mu.Unlock()
	return nil
}

// AppendWorkerEvents implements store.WorkerLog.
func (s *Store) AppendWorkerEvents(evs []store.WorkerEvent) error {
	if len(evs) == 0 {
		return nil
	}
	var b []byte
	b = binary.LittleEndian.AppendUint32(b, uint32(len(evs)))
	for _, ev := range evs {
		b = putI32(b, ev.Worker)
		b = putI32(b, ev.Landmark)
		b = putBool(b, ev.Correct)
		b = putF64(b, ev.RewardBalance)
		b = putI32(b, ev.TallyCorrect)
		b = putI32(b, ev.TallyWrong)
	}
	if err := s.append(recWorkerEvents, b); err != nil {
		return err
	}
	s.mu.Lock()
	s.stats.WorkerEvents += uint64(len(evs))
	s.mu.Unlock()
	return nil
}

// AppendTrips implements store.TrajLog: one WAL record per batch.
func (s *Store) AppendTrips(recs []store.TrajRecord) error {
	if len(recs) == 0 {
		return nil
	}
	var b []byte
	b = binary.LittleEndian.AppendUint32(b, uint32(len(recs)))
	for _, t := range recs {
		b = encodeTraj(b, t)
	}
	if err := s.append(recTrips, b); err != nil {
		return err
	}
	s.mu.Lock()
	s.stats.TrajAppends += uint64(len(recs))
	s.mu.Unlock()
	return nil
}

// AppendTaskOpen implements store.TaskLog.
func (s *Store) AppendTaskOpen(r store.TaskRecord) error {
	return s.appendTask(recTaskOpen, encodeTask(nil, r))
}

// AppendTaskDecision implements store.TaskLog.
func (s *Store) AppendTaskDecision(id int64, index int, yes bool) error {
	return s.appendTask(recTaskDecision, putBool(putU32(putI64(nil, id), uint32(index)), yes))
}

// AppendTaskClose implements store.TaskLog.
func (s *Store) AppendTaskClose(id int64) error {
	return s.appendTask(recTaskClose, putI64(nil, id))
}

func (s *Store) appendTask(typ byte, payload []byte) error {
	if err := s.append(typ, payload); err != nil {
		return err
	}
	s.mu.Lock()
	s.stats.TaskEvents++
	s.mu.Unlock()
	return nil
}

// Load implements store.Store: snapshot first, then WAL replay. A torn or
// corrupt tail record stops the replay and sets Stats.Truncated; the valid
// prefix is recovered. A corrupt snapshot (bad header, version, CRC or
// payload) is an error — silently serving without the snapshotted state
// would un-verify crowd knowledge.
func (s *Store) Load() (*store.State, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, errClosed
	}
	st := &store.State{}
	open := map[int64]*store.TaskRecord{}
	haveSnapshot := false

	snap, err := os.ReadFile(filepath.Join(s.dir, snapshotName))
	switch {
	case err == nil:
		if err := decodeSnapshot(snap, st, open); err != nil {
			return nil, err
		}
		haveSnapshot = true
	case os.IsNotExist(err):
		// First boot with no snapshot yet.
	default:
		return nil, fmt.Errorf("diskstore: read snapshot: %w", err)
	}

	wal, err := os.ReadFile(filepath.Join(s.dir, walName))
	if err != nil {
		return nil, fmt.Errorf("diskstore: read wal: %w", err)
	}
	records, validLen, truncated, err := s.replayWAL(wal, st, open)
	if err != nil {
		return nil, err
	}
	if truncated {
		// Cut the torn tail off so subsequent appends extend the valid
		// prefix instead of hiding behind unreadable bytes.
		if err := s.wal.Truncate(validLen); err != nil {
			return nil, fmt.Errorf("diskstore: truncate torn wal tail: %w", err)
		}
		if _, err := s.wal.Seek(0, io.SeekEnd); err != nil {
			return nil, fmt.Errorf("diskstore: seek after truncate: %w", err)
		}
		s.stats.WALBytes = validLen
	}
	s.stats.Truncated = truncated
	s.stats.WALRecords = records

	if !haveSnapshot && records == 0 {
		return nil, nil
	}
	//cplint:ordered-irrelevant -- st.FoldEvents below sorts OpenTasks by ID before anyone reads them
	for _, t := range open {
		st.OpenTasks = append(st.OpenTasks, *t)
	}
	st.FoldEvents()
	st.DedupeTrips()
	s.stats.LoadedTruths = len(st.Truths)
	s.stats.LoadedWorkers = len(st.Workers)
	s.stats.LoadedTasks = len(st.OpenTasks)
	s.stats.LoadedTrips = len(st.Trips)
	return st, nil
}

// replayWAL applies every intact record in data to st/open. It returns the
// number of intact records, the byte length of the valid prefix (header
// included), and whether a torn tail was skipped.
func (s *Store) replayWAL(data []byte, st *store.State, open map[int64]*store.TaskRecord) (records uint64, validLen int64, truncated bool, err error) {
	if _, err := checkHeader(data, walMagic, "wal"); err != nil {
		// A WAL too short to hold its header is tail damage from a crash at
		// creation; anything else (wrong magic/version) is a real error.
		if len(data) < 8 {
			return 0, int64(len(data)), true, nil
		}
		return 0, 0, false, err
	}
	pos := 8
	for pos < len(data) {
		if pos+5 > len(data) {
			return records, int64(pos), true, nil
		}
		typ := data[pos]
		n := int(binary.LittleEndian.Uint32(data[pos+1 : pos+5]))
		if pos+5+n+4 > len(data) {
			return records, int64(pos), true, nil
		}
		payload := data[pos+5 : pos+5+n]
		crc := crc32.NewIEEE()
		crc.Write([]byte{typ})
		crc.Write(payload)
		if crc.Sum32() != binary.LittleEndian.Uint32(data[pos+5+n:pos+9+n]) {
			return records, int64(pos), true, nil
		}
		if err := applyRecord(typ, payload, st, open); err != nil {
			// An intact record we cannot decode means a format bug, not tail
			// damage: fail loudly.
			return records, 0, false, err
		}
		records++
		pos += 9 + n
	}
	return records, int64(pos), false, nil
}

// applyRecord folds one WAL record into the state being loaded.
func applyRecord(typ byte, payload []byte, st *store.State, open map[int64]*store.TaskRecord) error {
	r := &reader{buf: payload}
	switch typ {
	case recTruth:
		t := decodeTruth(r)
		if r.err == nil {
			st.Truths = append(st.Truths, t)
		}
	case recWorkerEvents:
		n := int(r.u32())
		for i := 0; i < n && r.err == nil; i++ {
			st.WorkerEvents = append(st.WorkerEvents, store.WorkerEvent{
				Worker: r.i32(), Landmark: r.i32(), Correct: r.bool(),
				RewardBalance: r.f64(), TallyCorrect: r.i32(), TallyWrong: r.i32(),
			})
		}
	case recTrips:
		n := int(r.u32())
		for i := 0; i < n && r.err == nil; i++ {
			t := decodeTraj(r)
			if r.err == nil {
				st.Trips = append(st.Trips, t)
			}
		}
	case recTaskOpen:
		t := decodeTask(r)
		if r.err == nil {
			open[t.ID] = &t
			if t.ID > st.NextTaskID {
				st.NextTaskID = t.ID
			}
		}
	case recTaskDecision:
		id, index, yes := r.i64(), int(r.u32()), r.bool()
		if r.err == nil {
			if index >= maxDecisions {
				return fmt.Errorf("diskstore: wal task %d decision at position %d, limit %d", id, index, maxDecisions)
			}
			if t := open[id]; t != nil {
				t.Decisions = store.SetDecision(t.Decisions, index, yes)
			}
		}
	case recTaskClose:
		id := r.i64()
		if r.err == nil {
			delete(open, id)
		}
	default:
		return fmt.Errorf("diskstore: unknown wal record type %d", typ)
	}
	if r.err != nil {
		return fmt.Errorf("diskstore: decode wal record type %d: %w", typ, r.err)
	}
	return nil
}

// Snapshot implements store.Store: capture the state under the append mutex
// (so no commit can land in the doomed WAL after the capture), write it to a
// temp file, fsync, atomically rename it over the snapshot, then atomically
// reset the WAL.
func (s *Store) Snapshot(capture func() *store.State) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return errClosed
	}
	st := capture()
	st.FoldEvents()

	payload := encodeSnapshot(st)
	tmp := filepath.Join(s.dir, snapshotName+".tmp")
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return fmt.Errorf("diskstore: create snapshot temp: %w", err)
	}
	werr := writeHeader(f, snapshotMagic)
	if werr == nil {
		_, werr = f.Write(payload)
	}
	if werr == nil {
		var tail [4]byte
		binary.LittleEndian.PutUint32(tail[:], crc32.ChecksumIEEE(payload))
		_, werr = f.Write(tail[:])
	}
	if werr == nil {
		werr = f.Sync()
	}
	if cerr := f.Close(); werr == nil {
		werr = cerr
	}
	if werr != nil {
		os.Remove(tmp)
		return fmt.Errorf("diskstore: write snapshot: %w", werr)
	}
	if err := os.Rename(tmp, filepath.Join(s.dir, snapshotName)); err != nil {
		return fmt.Errorf("diskstore: install snapshot: %w", err)
	}

	// Compact: swap in a fresh WAL. The snapshot now owns everything the old
	// log held; a crash before the swap only means harmless double-replay.
	walTmp := filepath.Join(s.dir, walName+".tmp")
	nf, err := os.OpenFile(walTmp, os.O_CREATE|os.O_TRUNC|os.O_RDWR, 0o644)
	if err != nil {
		return fmt.Errorf("diskstore: create wal temp: %w", err)
	}
	if err := writeHeader(nf, walMagic); err != nil {
		nf.Close()
		os.Remove(walTmp)
		return err
	}
	if err := nf.Sync(); err != nil {
		nf.Close()
		os.Remove(walTmp)
		return fmt.Errorf("diskstore: sync wal temp: %w", err)
	}
	if err := os.Rename(walTmp, filepath.Join(s.dir, walName)); err != nil {
		nf.Close()
		return fmt.Errorf("diskstore: install wal: %w", err)
	}
	old := s.wal
	s.wal = nf
	old.Close()
	s.syncDir()
	s.stats.WALBytes = 8
	s.stats.WALRecords = 0
	s.stats.Snapshots++
	return nil
}

// VerifyWorld implements store.WorldVerifier: the first call on a fresh
// data directory pins the world fingerprint in <dir>/world.cpw; subsequent
// opens must present the same fingerprint. This catches a -data-dir reused
// across scenarios even when the node-ID ranges happen to line up (same
// city size, different seed) — replaying another world's truths and task
// decisions would serve wrong routes as crowd-verified.
func (s *Store) VerifyWorld(fingerprint uint64) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return errClosed
	}
	path := filepath.Join(s.dir, worldName)
	data, err := os.ReadFile(path)
	switch {
	case os.IsNotExist(err):
		var b []byte
		b = append(b, worldMagic[:]...)
		b = binary.LittleEndian.AppendUint16(b, formatVersion)
		b = binary.LittleEndian.AppendUint64(b, fingerprint)
		b = binary.LittleEndian.AppendUint32(b, crc32.ChecksumIEEE(b[8:16]))
		tmp := path + ".tmp"
		if err := os.WriteFile(tmp, b, 0o644); err != nil {
			return fmt.Errorf("diskstore: write world file: %w", err)
		}
		if err := os.Rename(tmp, path); err != nil {
			return fmt.Errorf("diskstore: install world file: %w", err)
		}
		s.syncDir()
		return nil
	case err != nil:
		return fmt.Errorf("diskstore: read world file: %w", err)
	}
	if _, err := checkHeader(data, worldMagic, "world file"); err != nil {
		return err
	}
	if len(data) < 20 {
		return errors.New("diskstore: world file: truncated")
	}
	if crc32.ChecksumIEEE(data[8:16]) != binary.LittleEndian.Uint32(data[16:20]) {
		return errors.New("diskstore: world file: checksum mismatch")
	}
	if got := binary.LittleEndian.Uint64(data[8:16]); got != fingerprint {
		return fmt.Errorf("diskstore: data directory belongs to a different world (fingerprint %x, this scenario is %x) — point -data-dir somewhere else or delete %s", got, fingerprint, s.dir)
	}
	return nil
}

// syncDir fsyncs the data directory so renames are durable; best-effort
// (some filesystems reject directory fsync).
func (s *Store) syncDir() {
	if d, err := os.Open(s.dir); err == nil {
		_ = d.Sync()
		d.Close()
	}
}

// Stats implements store.Store.
func (s *Store) Stats() store.Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.stats
}

// Close implements store.Store.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	s.closed = true
	if err := s.wal.Sync(); err != nil {
		s.wal.Close()
		return fmt.Errorf("diskstore: sync on close: %w", err)
	}
	return s.wal.Close()
}
