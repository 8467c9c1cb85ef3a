// Package guarduse exercises the guarded-field check across package
// boundaries: the guarded fields and their mutex live in package guarded,
// the lock regions and the violation live here.
package guarduse

import (
	"strings"

	"crowdplanner/internal/fix/guarded"
)

// AddItem mutates the shared registry under its package-level mutex.
func AddItem(s string) {
	guarded.Mu.Lock()
	defer guarded.Mu.Unlock()
	addLower(s)
}

// addLower inherits the held mutex from its only caller.
func addLower(s string) {
	guarded.Default.Items = append(guarded.Default.Items, strings.ToLower(s))
}

// Snapshot reads the shared registry without the lock.
func Snapshot() []string {
	return guarded.Default.Items // want "read guarded.Registry.Items outside"
}

// Local initializes a fresh Registry unlocked — constructor exemption.
func Local(items []string) guarded.Registry {
	r := guarded.Registry{}
	r.Items = items
	return r
}
