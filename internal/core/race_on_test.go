//go:build race

package core

// raceEnabled reports whether the race detector is active; tests that
// sweep many requests run fewer of them under its slowdown.
const raceEnabled = true
