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

// validateOD checks node IDs against the graph.
func validateOD(g *roadnet.Graph, from, to roadnet.NodeID) error {
	n := roadnet.NodeID(g.NumNodes())
	if from < 0 || from >= n || to < 0 || to >= n {
		return fmt.Errorf("popular: node out of range (from=%d to=%d n=%d)", from, to, n)
	}
	return nil
}
