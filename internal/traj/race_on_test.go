//go:build race

package traj

// raceEnabled reports whether the race detector is active; the equivalence
// sweeps shrink under its slowdown.
const raceEnabled = true
