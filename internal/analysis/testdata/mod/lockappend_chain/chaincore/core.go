// Package chaincore holds the locked regions of the cross-package chain
// fixture: the I/O sits two packages away (chaincore → chainingest →
// chainwal), so only module-wide reachability can connect the region to the
// append.
package chaincore

import (
	"sync"

	"crowdplanner/internal/store/chainwal"
	"crowdplanner/internal/traj/chainingest"
)

// System owns the log and the core mutex.
type System struct {
	mu      sync.Mutex
	log     *chainwal.Log
	pending [][]byte
}

// FlushLocked appends while holding the mutex — through a helper package.
func (s *System) FlushLocked(rec []byte) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return chainingest.Ingest(s.log, rec) // want "^chainingest\.Ingest → store append/IO \(Log\.Append\) reachable while s\.mu is locked \(acquired at line 23\): appends never run under core locks — buffer under the lock, flush after unlocking, or annotate why this cannot block$"
}

// FlushAfter is the sanctioned shape: buffer under the lock, flush after
// unlocking.
func (s *System) FlushAfter(rec []byte) error {
	s.mu.Lock()
	s.pending = append(s.pending, chainingest.Transform(rec))
	batch := s.pending
	s.pending = nil
	s.mu.Unlock()
	for _, r := range batch {
		if err := chainingest.Ingest(s.log, r); err != nil {
			return err
		}
	}
	return nil
}
