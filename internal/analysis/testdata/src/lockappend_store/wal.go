// Package storefixture holds I/O-under-a-lock code and is checked under
// the store import path: the storage layer legitimately serializes its own
// file writes under its append mutex, so the analyzer must stay silent and
// this file carries no want comments.
package storefixture

import (
	"os"
	"sync"
)

type wal struct {
	mu sync.Mutex
	f  *os.File
}

func (w *wal) append(b []byte) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if _, err := w.f.Write(b); err != nil {
		return err
	}
	return w.f.Sync()
}
