package routing

import "sync/atomic"

// Stats is a snapshot of the engine's lifetime counters, surfaced under the
// `routing` section of GET /v1/health (mirroring the route-cache stats).
type Stats struct {
	// Searches counts single-pair searches run, including Yen spur
	// searches; AStarSearches is the goal-directed subset.
	Searches      uint64 `json:"searches"`
	AStarSearches uint64 `json:"astar_searches"`
	// KShortestCalls counts KShortest invocations (each runs many spurs).
	KShortestCalls uint64 `json:"kshortest_calls"`
	// HeapPushes counts priority-queue pushes across all searches — the
	// engine's unit of raw work.
	HeapPushes uint64 `json:"heap_pushes"`
	// PoolHits counts searches served by a recycled, already-sized
	// workspace (the allocation-free steady state); PoolMisses counts
	// fresh or resized workspaces.
	PoolHits   uint64 `json:"pool_hits"`
	PoolMisses uint64 `json:"pool_misses"`
	// PrepBuilds counts landmark preprocessing runs; PrepLandmarks sums
	// landmarks selected across builds, PrepBuildNs sums build wall-time,
	// and PrepTableBytes sums the distance-table footprints.
	PrepBuilds     uint64 `json:"prep_builds"`
	PrepLandmarks  uint64 `json:"prep_landmarks"`
	PrepBuildNs    uint64 `json:"prep_build_ns"`
	PrepTableBytes uint64 `json:"prep_table_bytes"`
	// ALTSearches counts searches that ran with at least one active
	// landmark; ALTActiveLandmarks sums the active-set sizes (average =
	// sum/searches); ALTTightened counts queries where the landmark bound
	// at the source beat the straight-line bound — the fraction of queries
	// the tables actually helped.
	ALTSearches        uint64 `json:"alt_searches"`
	ALTActiveLandmarks uint64 `json:"alt_active_landmarks"`
	ALTTightened       uint64 `json:"alt_tightened"`
}

var counters struct {
	searches   atomic.Uint64
	astar      atomic.Uint64
	kshortest  atomic.Uint64
	heapPushes atomic.Uint64
	poolHits   atomic.Uint64
	poolMisses atomic.Uint64

	prepBuilds     atomic.Uint64
	prepLandmarks  atomic.Uint64
	prepBuildNs    atomic.Uint64
	prepTableBytes atomic.Uint64

	altSearches  atomic.Uint64
	altActive    atomic.Uint64
	altTightened atomic.Uint64
}

// CounterSnapshot returns the current values of the engine counters. They
// are process-lifetime totals across every graph and caller.
func CounterSnapshot() Stats {
	return Stats{
		Searches:       counters.searches.Load(),
		AStarSearches:  counters.astar.Load(),
		KShortestCalls: counters.kshortest.Load(),
		HeapPushes:     counters.heapPushes.Load(),
		PoolHits:       counters.poolHits.Load(),
		PoolMisses:     counters.poolMisses.Load(),

		PrepBuilds:     counters.prepBuilds.Load(),
		PrepLandmarks:  counters.prepLandmarks.Load(),
		PrepBuildNs:    counters.prepBuildNs.Load(),
		PrepTableBytes: counters.prepTableBytes.Load(),

		ALTSearches:        counters.altSearches.Load(),
		ALTActiveLandmarks: counters.altActive.Load(),
		ALTTightened:       counters.altTightened.Load(),
	}
}
