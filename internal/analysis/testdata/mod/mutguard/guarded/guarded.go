// Package guarded exercises the locks analyzer's guarded-field check: every
// shape of //cplint:guardedby compliance and violation, including
// held-on-entry inference through recursion, writes (element stores too)
// under RLock, the fresh-object exemption, and directive validation.
package guarded

import (
	"sort"
	"sync"
)

// Counter is shared state with a machine-checked lock contract.
type Counter struct {
	mu sync.RWMutex
	//cplint:guardedby mu
	n int
	//cplint:guardedby mu
	hist []int
}

// New initializes a fresh Counter without the lock: the object is not
// shared yet, so the constructor exemption applies.
func New() *Counter {
	c := &Counter{}
	c.n = 1
	c.hist = append(c.hist, c.n)
	return c
}

// Inc holds the exclusive lock across both field accesses.
func (c *Counter) Inc() {
	c.mu.Lock()
	c.n++
	c.hist = append(c.hist, c.n)
	c.mu.Unlock()
}

// Get reads under the read lock (deferred release holds to return).
func (c *Counter) Get() int {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.n
}

// incLocked is only ever called with mu held; the held-on-entry fixpoint
// proves it, so the unlocked-looking access is fine.
func (c *Counter) incLocked() {
	c.n++
}

// Add drives incLocked under the lock.
func (c *Counter) Add(k int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for i := 0; i < k; i++ {
		c.incLocked()
	}
}

// Sorted runs a comparator literal while the lock is held: the literal
// inherits the held set at its definition point.
func (c *Counter) Sorted() {
	c.mu.Lock()
	defer c.mu.Unlock()
	sort.Slice(c.hist, func(i, j int) bool { return c.hist[i] < c.hist[j] })
}

// Peek reads without any lock.
func (c *Counter) Peek() int {
	return c.n // want "read guarded.Counter.n outside"
}

// BadRacyWrite writes under the read lock only.
func (c *Counter) BadRacyWrite() {
	c.mu.RLock()
	defer c.mu.RUnlock()
	c.n++ // want "writes need the exclusive lock"
}

// BadAsync spawns a goroutine from inside the locked region: the closure
// runs after the region may have closed, so its access is unprotected.
func (c *Counter) BadAsync() {
	c.mu.Lock()
	defer c.mu.Unlock()
	go func() {
		c.n++ // want "mu is not held in guarded.Counter.BadAsync"
	}()
}

// bump is a helper reached only through lock-free callers; the finding
// names an example chain.
func (c *Counter) bump() {
	c.n++ // want "^write to guarded\.Counter\.n outside its //cplint:guardedby region: mu is not held in guarded\.Counter\.bump \(example lock-free path: guarded\.Counter\.Outer → guarded\.Counter\.bump\) — acquire it, or move the access into a caller's locked region$"
}

// Outer calls bump without taking the lock.
func (c *Counter) Outer() {
	c.bump()
}

// SuppressedPeek proves the standard suppression vocabulary applies.
func (c *Counter) SuppressedPeek() int {
	//cplint:ignore locks -- fixture: intentionally unlocked read proving suppressions reach the guarded-field check
	return c.n
}

// MaybeFresh writes through a local that is a fresh object on one branch
// and the shared receiver on the other: not every definition is fresh, so
// the exemption does not apply.
func (c *Counter) MaybeFresh(own bool) {
	d := c
	if own {
		d = &Counter{}
	}
	d.n++ // want "write to guarded.Counter.n outside"
}

// First takes an element's address under the read lock: only &x.f itself
// counts as a write, so this is a read.
func (c *Counter) First() *int {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return &c.hist[0]
}

// Walk recurses through even/odd only under the lock: the pair inherits
// it (greatest fixpoint), so their reads pass.
func (c *Counter) Walk(k int) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.even(k)
}

func (c *Counter) even(k int) int {
	if k <= 0 {
		return c.n
	}
	return c.odd(k - 1)
}

func (c *Counter) odd(k int) int { return c.even(k - 1) }

// down and up recurse too, but LockedDepth is not their only entry:
// Depth reaches them without the lock, and the example chain names each
// function once.
func (c *Counter) down(k int) int {
	if k <= 0 {
		return c.n // want "^read guarded\.Counter\.n outside its //cplint:guardedby region: mu is not held in guarded\.Counter\.down \(example lock-free path: guarded\.Counter\.Depth → guarded\.Counter\.down\) — acquire it, or move the access into a caller's locked region$"
	}
	return c.up(k - 1)
}

func (c *Counter) up(k int) int { return c.down(k) }

// LockedDepth enters the recursion under the lock.
func (c *Counter) LockedDepth(k int) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.down(k)
}

// Depth enters the recursion without it.
func (c *Counter) Depth(k int) int { return c.down(k) }

// Table is a guarded map of counters.
type Table struct {
	mu sync.RWMutex
	//cplint:guardedby mu
	rows map[string]*Counter
}

// Publish stores a freshly built row into the shared map without the
// lock: the row is fresh, the map it lands in is not.
func (t *Table) Publish(k string) {
	c := &Counter{}
	t.rows[k] = c // want "write to guarded.Table.rows outside"
}

// Evict stores into and deletes from the map under the read lock only:
// element stores are writes.
func (t *Table) Evict(k string) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	t.rows[k] = nil   // want "write to guarded.Table.rows while holding mu only for reading"
	delete(t.rows, k) // want "write to guarded.Table.rows while holding mu only for reading"
}

// Prose carries the contract in words only — the analyzer demands the
// directive so the contract is enforced, not just documented.
type Prose struct {
	mu sync.Mutex
	// pending is guarded by mu. want "documents a lock contract in prose"
	pending int
}

// Bad carries directives that do not resolve.
type Bad struct {
	mu sync.Mutex
	//cplint:guardedby nosuch want "does not resolve"
	x int
	y int /*cplint:guardedby*/ // want "needs a mutex"
	//cplint:guardedby mu want "embedded field"
	sync.Once
}

// Mu is a package-level mutex; Registry fields resolve their directive to
// it, and package guarduse locks it cross-package.
var Mu sync.Mutex

// Registry is guarded by the package-level mutex.
type Registry struct {
	//cplint:guardedby Mu
	Items []string
}

// Default is the shared registry instance guarduse mutates.
var Default Registry

func misplaced() {
	//cplint:guardedby mu want "misplaced"
	_ = 0
}
