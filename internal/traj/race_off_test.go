//go:build !race

package traj

const raceEnabled = false
