// Package lockappendfixture exercises the locks analyzer's I/O check. It imports
// the real storage interfaces so calls into the store layer resolve to the
// package the analyzer scopes on.
package lockappendfixture

import (
	"os"
	"sync"

	"crowdplanner/internal/store"
)

type sys struct {
	mu  sync.Mutex
	rw  sync.RWMutex
	st  store.Store
	buf []store.TruthRecord
}

// appendUnderLock violates the WAL discipline directly: the fsync'd append
// runs while s.mu is held.
func (s *sys) appendUnderLock(rec store.TruthRecord) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.st.AppendTruth(rec) // want "AppendTruth.* while s.mu is locked"
}

// appendAfterUnlock is the sanctioned walBatch shape: buffer under the
// lock, flush after the plain Unlock closes the region.
func (s *sys) appendAfterUnlock(rec store.TruthRecord) error {
	s.mu.Lock()
	s.buf = append(s.buf, rec)
	s.mu.Unlock()
	return s.flush()
}

// flush performs the appends; it carries an I/O summary.
func (s *sys) flush() error {
	for _, r := range s.buf {
		if err := s.st.AppendTruth(r); err != nil {
			return err
		}
	}
	return nil
}

// transitiveUnderLock reaches the append through a same-package call: the
// fixpoint propagation must see through flush.
func (s *sys) transitiveUnderLock() error {
	s.rw.Lock()
	defer s.rw.Unlock()
	return s.flush() // want "flush .* while s.rw is locked"
}

// fileUnderRLock blocks on file I/O while holding a read lock.
func (s *sys) fileUnderRLock(path string) error {
	s.rw.RLock()
	defer s.rw.RUnlock()
	return os.WriteFile(path, nil, 0o644) // want "os.WriteFile.* while s.rw is locked"
}

// readUnderLock touches only memory: fine.
func (s *sys) readUnderLock() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.buf)
}

// litEscapesRegion builds a closure under the lock but runs it outside;
// calls inside nested literals are not tied to the region.
func (s *sys) litEscapesRegion(rec store.TruthRecord) error {
	s.mu.Lock()
	run := func() error { return s.st.AppendTruth(rec) }
	s.mu.Unlock()
	return run()
}

// annotated keeps a justified append under the lock.
func (s *sys) annotated(rec store.TruthRecord) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	//cplint:ignore locks -- fixture: single-owner mutex never contended on the serving path
	return s.st.AppendTruth(rec)
}

// distinctMutexOK: a lock on one receiver does not cover I/O after its own
// unlock even with another mutex still out of scope.
func (s *sys) distinctMutexOK(rec store.TruthRecord) error {
	s.mu.Lock()
	n := len(s.buf)
	s.mu.Unlock()
	_ = n
	return s.st.AppendTruth(rec)
}
