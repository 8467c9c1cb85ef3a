// Package popular implements the popular-route mining algorithms the paper
// uses as candidate-route sources alongside web services: MPR (transfer-
// network popularity, after Chen et al. ICDE'11 [4]), MFP (time-period most
// frequent path, after Luo et al. SIGMOD'13 [13]) and LDR (local drivers'
// routes, after Ceikute & Jensen MDM'13 [3]).
//
// Each miner consumes the historical trajectory corpus and proposes the
// route it considers most popular between two nodes at a departure time.
// All three deliberately disagree in edge cases — that disagreement is what
// sends requests to the crowd.
package popular

import (
	"errors"
	"fmt"
	"sort"

	"crowdplanner/internal/roadnet"
	"crowdplanner/internal/routing"
	"crowdplanner/internal/traj"
)

// ErrNotEnoughData is returned when the trajectory corpus cannot support a
// recommendation for the requested OD pair (the sparse-region failure mode
// the paper's introduction warns about).
var ErrNotEnoughData = errors.New("popular: not enough trajectory data for this request")

// Miner proposes a popular route between two nodes at a departure time.
// Support is an algorithm-specific strength-of-evidence score; higher is
// stronger. Implementations return ErrNotEnoughData when the corpus cannot
// answer.
type Miner interface {
	Name() string
	Mine(ds *traj.Dataset, from, to roadnet.NodeID, t routing.SimTime) (route roadnet.Route, support float64, err error)
}

// adjacency groups a transition-frequency map's keys by source node, each
// list sorted by destination. The searches relax a node's transitions in
// this order, which (together with the priority queues' node tie-breaks)
// makes tie-broken results independent of map iteration order, so equal
// frequency maps always yield bit-identical routes.
func adjacency(freq map[traj.Transition]int) map[roadnet.NodeID][]traj.Transition {
	adj := map[roadnet.NodeID][]traj.Transition{}
	for k := range freq {
		adj[k.From] = append(adj[k.From], k)
	}
	//cplint:ordered-irrelevant -- each bucket is sorted in place; visiting buckets in any order touches disjoint state
	for _, ts := range adj {
		sort.Slice(ts, func(i, j int) bool { return ts[i].To < ts[j].To })
	}
	return adj
}

// modeRoute returns the most common route in rs (by exact node sequence),
// its vote count, and the total number of votes. Ties break on the smaller
// route string for determinism. Routes are grouped by a node-sequence hash
// (collisions resolved by exact comparison) so the per-trip cost is one hash
// pass, not a string allocation; the tie-break strings are built lazily and
// only for the handful of distinct routes that actually tie.
func modeRoute(rs []roadnet.Route) (roadnet.Route, int, int) {
	type bucket struct {
		route roadnet.Route
		votes int
		key   string // lazy r.String(), filled on tie-break only
	}
	groups := map[uint64][]*bucket{}
	total := 0
	for _, r := range rs {
		if r.Empty() {
			continue
		}
		total++
		h := hashNodes(r.Nodes)
		var b *bucket
		for _, c := range groups[h] {
			if c.route.Equal(r) {
				b = c
				break
			}
		}
		if b == nil {
			b = &bucket{route: r}
			groups[h] = append(groups[h], b)
		}
		b.votes++
	}
	var best *bucket
	//cplint:ordered-irrelevant -- argmax under the total order (votes desc, route key asc); the winner is visit-order independent
	for _, bs := range groups {
		for _, b := range bs {
			switch {
			case best == nil || b.votes > best.votes:
				best = b
			case b.votes == best.votes:
				if b.key == "" {
					b.key = b.route.String()
				}
				if best.key == "" {
					best.key = best.route.String()
				}
				if b.key < best.key {
					best = b
				}
			}
		}
	}
	if best == nil {
		return roadnet.Route{}, 0, 0
	}
	return best.route, best.votes, total
}

// hashNodes is an FNV-1a hash over a node sequence.
func hashNodes(nodes []roadnet.NodeID) uint64 {
	h := uint64(14695981039346656037)
	for _, n := range nodes {
		h ^= uint64(n)
		h *= 1099511628211
	}
	return h
}

// validateOD checks node IDs against the graph.
func validateOD(g *roadnet.Graph, from, to roadnet.NodeID) error {
	n := roadnet.NodeID(g.NumNodes())
	if from < 0 || from >= n || to < 0 || to >= n {
		return fmt.Errorf("popular: node out of range (from=%d to=%d n=%d)", from, to, n)
	}
	return nil
}
