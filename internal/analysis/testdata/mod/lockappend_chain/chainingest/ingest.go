// Package chainingest is the middle hop of the cross-package chain fixture:
// it neither locks nor does I/O itself, it just forwards to the store — the
// hop a per-package check could never see through.
package chainingest

import "crowdplanner/internal/store/chainwal"

// Ingest forwards one record to the log.
func Ingest(l *chainwal.Log, rec []byte) error {
	return l.Append(rec)
}

// Transform is I/O-free; calls to it under a lock are fine.
func Transform(rec []byte) []byte {
	out := make([]byte, len(rec))
	copy(out, rec)
	return out
}
