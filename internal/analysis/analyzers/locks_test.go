package analyzers_test

import (
	"testing"

	"crowdplanner/internal/analysis/analysistest"
	"crowdplanner/internal/analysis/analyzers"
)

// TestLockappend checks the I/O-under-a-lock family on one package: direct
// and transitive appends, file I/O under RLock, the walBatch shape, closures
// that run outside the region, and suppression by name.
func TestLockappend(t *testing.T) {
	analysistest.Run(t, analyzers.Locks,
		"../testdata/src/lockappend", "crowdplanner/internal/core/lockappendfixture")
}

// TestLockappendStoreExempt checks the storage layer may serialize its own
// file writes under its append mutex.
func TestLockappendStoreExempt(t *testing.T) {
	analysistest.Run(t, analyzers.Locks,
		"../testdata/src/lockappend_store", "crowdplanner/internal/store/walfixture")
}

// TestLockappendCrossPackageChain checks the module-wide case: the locked
// region lives in a core package, the append two static hops away behind a
// helper package, and the finding renders the full call chain.
func TestLockappendCrossPackageChain(t *testing.T) {
	analysistest.RunModule(t, analyzers.Locks,
		"../testdata/mod/lockappend_chain", map[string]string{
			"crowdplanner/internal/core/chaincore":   "chaincore",
			"crowdplanner/internal/traj/chainingest": "chainingest",
			"crowdplanner/internal/store/chainwal":   "chainwal",
		})
}

// TestLockorderCycle checks the two-package, two-mutex cycle: one edge from
// direct nesting, the reverse edge through a cross-package helper call, plus
// a re-acquisition self-deadlock. Consistent nesting alone must not fire.
func TestLockorderCycle(t *testing.T) {
	analysistest.RunModule(t, analyzers.Locks,
		"../testdata/mod/lockorder_cycle", map[string]string{
			"crowdplanner/internal/core/lockpair": "lockpair",
			"crowdplanner/internal/core/lockuse":  "lockuse",
		})
}

// TestMutguard checks the guardedby contract end to end: locked and
// inferred-held accesses pass (including a cross-package lock region and a
// comparator literal defined inside one), unlocked reads/writes, go-closure
// escapes, and writes under RLock are findings with example call chains, the
// constructor exemption applies, and the directive vocabulary itself is
// validated (unresolvable spec, missing spec, embedded fields, prose-only
// contracts, misplaced directives).
func TestMutguard(t *testing.T) {
	analysistest.RunModule(t, analyzers.Locks,
		"../testdata/mod/mutguard", map[string]string{
			"crowdplanner/internal/fix/guarded":  "guarded",
			"crowdplanner/internal/fix/guarduse": "guarduse",
		})
}
