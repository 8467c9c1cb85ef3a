package routing

import (
	"crowdplanner/internal/roadnet"
)

// heapEntry is one priority-queue entry: a node and the priority it was
// pushed with (g-cost for Dijkstra, g+h for A*). Entries are plain values —
// no per-push boxing, no index bookkeeping — and the queue uses lazy
// deletion: a node may appear several times with decreasing priorities, and
// stale pops are skipped via the done stamp.
type heapEntry struct {
	prio float64
	node roadnet.NodeID
}

// entryLess orders entries by priority with the node ID as a deterministic
// tie-break, the same strict total order the old container/heap engine used.
// Under a strict total order every pop extracts the unique minimum of the
// queue's contents, so any correct heap yields the same pop sequence — which
// is what keeps the rewritten engine bit-identical to the old one.
//
//cplint:hotpath
func entryLess(a, b heapEntry) bool {
	if a.prio != b.prio {
		return a.prio < b.prio
	}
	return a.node < b.node
}

// minHeap is the engine's one priority queue, held by the query workspace
// (searchSpace) and by the preprocessing sweeps (metricSearch) alike. It is
// 4-ary: shallower than a binary heap (fewer levels to sift through on push,
// the dominant operation in Dijkstra) with all four children adjacent in one
// cache line pair.
type minHeap []heapEntry

// push inserts e.
//
//cplint:hotpath
func (h *minHeap) push(e heapEntry) {
	//cplint:ignore hotalloc -- sanctioned: every minHeap lives in a reused owner (a pooled searchSpace, or a metricSearch kept across a build's sweeps) that empties it by length, so growth amortizes to zero steady-state allocations
	s := append(*h, e)
	i := len(s) - 1
	for i > 0 {
		p := (i - 1) / 4
		if !entryLess(e, s[p]) {
			break
		}
		s[i] = s[p]
		i = p
	}
	s[i] = e
	*h = s
}

// pop removes and returns the minimum entry. The heap must not be empty.
//
//cplint:hotpath
func (h *minHeap) pop() heapEntry {
	s := *h
	top := s[0]
	last := s[len(s)-1]
	s = s[:len(s)-1]
	*h = s
	if n := len(s); n > 0 {
		i := 0
		for {
			c := i*4 + 1
			if c >= n {
				break
			}
			m := c
			end := min(c+4, n)
			for j := c + 1; j < end; j++ {
				if entryLess(s[j], s[m]) {
					m = j
				}
			}
			if !entryLess(s[m], last) {
				break
			}
			s[i] = s[m]
			i = m
		}
		s[i] = last
	}
	return top
}
