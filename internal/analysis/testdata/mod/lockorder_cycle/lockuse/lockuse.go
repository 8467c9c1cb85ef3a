// Package lockuse acquires the lockpair mutexes in both orders — the
// two-mutex cycle the locks analyzer must catch — plus a re-acquisition
// self-deadlock through a helper call.
package lockuse

import "crowdplanner/internal/core/lockpair"

// LockAB nests A before B directly.
func LockAB(a *lockpair.A, b *lockpair.B) {
	a.Mu.Lock()
	b.Mu.Lock() // want "^potential deadlock: lock-order cycle lockpair\.A\.Mu → lockpair\.B\.Mu → lockpair\.A\.Mu — lockuse\.LockAB acquires lockpair\.B\.Mu at lockuse\.go:11 while holding lockpair\.A\.Mu \(line 10\); lockuse\.LockBA → lockpair\.GrabA acquires lockpair\.A\.Mu at lockuse\.go:21 while holding lockpair\.B\.Mu \(line 20\); two goroutines entering from different ends block forever \(pick one global order and document it\)$"
	b.N++
	b.Mu.Unlock()
	a.Mu.Unlock()
}

// LockBA takes B, then reaches A through a helper in the other package: the
// reverse edge closing the cycle exists only interprocedurally.
func LockBA(a *lockpair.A, b *lockpair.B) {
	b.Mu.Lock()
	lockpair.GrabA(a)
	b.Mu.Unlock()
}

// Re holds A and calls a helper that locks A again.
func Re(a *lockpair.A) {
	a.Mu.Lock()
	defer a.Mu.Unlock()
	lockpair.RelockA(a) // want "potential self-deadlock: lockpair.A.Mu may be re-acquired while already held"
}

// NestedConsistent repeats the documented A-before-B order; consistent
// nesting on its own is not a finding (the cycle is, once, above).
func NestedConsistent(a *lockpair.A, b *lockpair.B) {
	a.Mu.Lock()
	b.Mu.Lock()
	a.N++
	b.Mu.Unlock()
	a.Mu.Unlock()
}
