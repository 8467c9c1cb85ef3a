package traj

import (
	"math/rand"

	"crowdplanner/internal/geo"
	"crowdplanner/internal/roadnet"
	"crowdplanner/internal/routing"
)

// Sample is one GPS fix of a trajectory.
type Sample struct {
	Pt geo.Point
	T  routing.SimTime
}

// Trajectory is a recorded trip: the raw GPS samples plus, once map-matched,
// the route through the road network.
type Trajectory struct {
	Driver DriverID
	Depart routing.SimTime
	// Samples are the raw GPS fixes. GenerateDataset sets them to nil once
	// MapMatch succeeds: nothing reads them after matching, and the default
	// world's 70k fixes would hold about 2.5 MB of heap.
	Samples []Sample
	Route   roadnet.Route // map-matched node sequence; may be empty pre-matching
}

// GPSConfig controls how routes are turned into noisy GPS traces.
type GPSConfig struct {
	SampleEveryM float64 // nominal distance between fixes, meters
	NoiseStdM    float64 // gaussian noise per fix, meters
	DropProb     float64 // probability a fix is dropped (urban canyon)
}

// DefaultGPSConfig matches commodity vehicle trackers: a fix every ~120 m
// with ~8 m noise and occasional dropouts.
func DefaultGPSConfig() GPSConfig {
	return GPSConfig{SampleEveryM: 120, NoiseStdM: 8, DropProb: 0.05}
}

// Trace converts a route driven from depart into a noisy GPS trajectory.
func Trace(g *roadnet.Graph, d *Driver, r roadnet.Route, depart routing.SimTime, cfg GPSConfig, rng *rand.Rand) Trajectory {
	pl := r.Polyline(g)
	total := pl.Length()
	minutes := routing.TravelMinutes(g, r, depart)
	tr := Trajectory{Driver: d.ID, Depart: depart, Route: r.Clone()}
	if total == 0 {
		tr.Samples = []Sample{{Pt: pl[0], T: depart}}
		return tr
	}
	step := cfg.SampleEveryM
	if step <= 0 {
		step = 120
	}
	for pos := 0.0; ; pos += step {
		clamped := pos
		last := false
		if clamped >= total {
			clamped = total
			last = true
		}
		if !last && rng != nil && rng.Float64() < cfg.DropProb {
			continue
		}
		p := pl.PointAt(clamped)
		if rng != nil && cfg.NoiseStdM > 0 {
			p.X += rng.NormFloat64() * cfg.NoiseStdM
			p.Y += rng.NormFloat64() * cfg.NoiseStdM
		}
		frac := clamped / total
		tr.Samples = append(tr.Samples, Sample{Pt: p, T: depart.Add(minutes * frac)})
		if last {
			break
		}
	}
	return tr
}

// maxSnapM is the acceptance radius for snapping a GPS fix to an
// intersection. Mid-edge fixes (further than this from any node) are
// discarded and bridged by shortest path instead; without the threshold a
// fix halfway along a long highway segment would snap to an off-route city
// node and make the matched route weave.
const maxSnapM = 100

// MapMatch snaps a GPS trajectory back onto the road network, returning the
// inferred route. Fixes within maxSnapM of an intersection snap to it (the
// first and last fix always anchor to their nearest node), consecutive
// repeats are deduplicated, and non-adjacent node pairs are bridged with the
// shortest path — a standard lightweight point-to-node matcher, sufficient
// because the synthetic GPS noise (≈8 m) is far below node spacing (≈250 m).
func MapMatch(g *roadnet.Graph, samples []Sample) (roadnet.Route, error) {
	if len(samples) == 0 {
		return roadnet.Route{}, routing.ErrNoRoute
	}
	var snapped []roadnet.NodeID
	for i, s := range samples {
		n, ok := g.NearestNode(s.Pt)
		if !ok {
			return roadnet.Route{}, routing.ErrNoRoute
		}
		endpoint := i == 0 || i == len(samples)-1
		if !endpoint && geo.Dist(s.Pt, g.Node(n).Pt) > maxSnapM {
			continue
		}
		if len(snapped) == 0 || snapped[len(snapped)-1] != n {
			snapped = append(snapped, n)
		}
	}
	// Bridge gaps.
	nodes := []roadnet.NodeID{snapped[0]}
	for i := 1; i < len(snapped); i++ {
		prev := nodes[len(nodes)-1]
		next := snapped[i]
		if prev == next {
			continue
		}
		if _, ok := g.FindEdge(prev, next); ok {
			nodes = append(nodes, next)
			continue
		}
		bridge, _, err := routing.AStar(g, prev, next, routing.DistanceCost, 0)
		if err != nil {
			return roadnet.Route{}, err
		}
		nodes = append(nodes, bridge.Nodes[1:]...)
	}
	// A trajectory that collapses to a single node has no edges; report it
	// as unroutable rather than returning an invalid route.
	if len(nodes) < 2 {
		return roadnet.Route{}, routing.ErrNoRoute
	}
	return roadnet.Route{Nodes: nodes}, nil
}
