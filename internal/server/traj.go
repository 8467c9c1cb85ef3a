package server

import (
	"fmt"
	"math"
	"net/http"
	"sort"

	"crowdplanner/internal/core"
	"crowdplanner/internal/roadnet"
	"crowdplanner/internal/routing"
	"crowdplanner/internal/traj"
)

// Trajectory ingestion: POST /v1/trajectories streams observed trips into
// the live corpus. Each trip is validated against the road network; valid
// trips become visible to the popular-route miners immediately and are
// persisted through the storage backend (they survive a restart when the
// server runs with -data-dir). Invalid trips are reported per item without
// failing the batch, mirroring /v1/recommend/batch semantics.

// TrajTrip is one trip in the POST /v1/trajectories body: the map-matched
// route plus its departure time and the driver who drove it.
type TrajTrip struct {
	Driver    int32   `json:"driver"`
	DepartMin float64 `json:"depart_min"` // minutes since Monday 00:00
	Nodes     []int64 `json:"nodes"`      // route node sequence
}

// trajMaxItems caps the trips one POST /v1/trajectories call may carry.
const trajMaxItems = 1024

// IngestRequest is the POST /v1/trajectories body.
type IngestRequest struct {
	Trips []TrajTrip `json:"trips"`
}

// IngestResponse is its reply.
type IngestResponse struct {
	Accepted   int                    `json:"accepted"`
	Rejected   []core.IngestRejection `json:"rejected"`
	TotalTrips int                    `json:"total_trips"`
}

func (s *Server) handleIngestTrajectories(w http.ResponseWriter, r *http.Request) {
	// Ingested trips must be durable to be honest: while the storage
	// breaker is open their append would be short-circuited, so the whole
	// endpoint is refused (503) rather than accepting data that would
	// vanish on restart.
	if s.rejectIfDegraded(w, r) {
		return
	}
	var req IngestRequest
	if !decodeBody(w, r, maxIngestBodyBytes, &req) {
		return
	}
	if len(req.Trips) == 0 {
		writeErr(w, r, http.StatusBadRequest, CodeBadRequest, "trips array is empty")
		return
	}
	if len(req.Trips) > trajMaxItems {
		writeErr(w, r, http.StatusRequestEntityTooLarge, CodeTooLarge,
			"batch has %d trips, limit is %d", len(req.Trips), trajMaxItems)
		return
	}
	// Node IDs arrive as int64 but roadnet.NodeID is int32: values outside
	// the int32 range must be rejected here, not narrowed — a silent wrap
	// could alias a garbage ID onto a valid node and slip a corrupt trip
	// past the core's range check into the mining indexes and the WAL.
	var trips []traj.Trajectory
	var kept []int // original index of each trip handed to the core
	rejected := []core.IngestRejection{}
	for i, t := range req.Trips {
		nodes, err := narrowNodes(t.Nodes)
		if err != "" {
			rejected = append(rejected, core.IngestRejection{Index: i, Reason: err})
			continue
		}
		kept = append(kept, i)
		trips = append(trips, traj.Trajectory{
			Driver: traj.DriverID(t.Driver),
			Depart: routing.SimTime(t.DepartMin),
			Route:  roadnet.Route{Nodes: nodes},
		})
	}
	rep := s.sys.IngestTrips(trips)
	for _, r := range rep.Rejected {
		rejected = append(rejected, core.IngestRejection{Index: kept[r.Index], Reason: r.Reason})
	}
	sort.Slice(rejected, func(a, b int) bool { return rejected[a].Index < rejected[b].Index })
	writeJSON(w, http.StatusOK, IngestResponse{
		Accepted: rep.Accepted, Rejected: rejected, TotalTrips: rep.TotalTrips,
	})
}

// narrowNodes converts wire node IDs to roadnet.NodeID, refusing values the
// int32 domain cannot represent. A non-empty string is the rejection reason.
func narrowNodes(in []int64) ([]roadnet.NodeID, string) {
	nodes := make([]roadnet.NodeID, len(in))
	for j, n := range in {
		if n < math.MinInt32 || n > math.MaxInt32 {
			return nil, fmt.Sprintf("route node %d outside the representable ID range", n)
		}
		nodes[j] = roadnet.NodeID(n)
	}
	return nodes, ""
}
