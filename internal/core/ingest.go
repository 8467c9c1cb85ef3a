package core

import (
	"fmt"
	"math"

	"crowdplanner/internal/roadnet"
	"crowdplanner/internal/routecache"
	"crowdplanner/internal/routing"
	"crowdplanner/internal/store"
	"crowdplanner/internal/traj"
	"crowdplanner/internal/truth"
)

// Live trajectory ingestion: the paper's "large-scale real trajectory
// dataset" is not frozen in a production system — new trips arrive
// continuously and must become visible to the popular-route miners. The
// pipeline is: validate against the road network → append to the corpus and
// update the mining indexes incrementally (internal/traj) → invalidate the
// route-cache entries the new evidence staled → log to the storage backend
// so the stream survives a restart (store.TrajLog, replayed by
// LoadFromStore).

// IngestRejection reports why one trip of a batch was refused.
type IngestRejection struct {
	Index  int    `json:"index"`
	Reason string `json:"reason"`
}

// IngestReport summarizes one ingestion batch.
type IngestReport struct {
	Accepted   int               `json:"accepted"`
	Rejected   []IngestRejection `json:"rejected,omitempty"`
	TotalTrips int               `json:"total_trips"` // corpus size after the batch
}

// IngestTrips validates and ingests a batch of trajectories into the live
// corpus. Valid trips become visible to the popular-route miners immediately
// (the mining indexes update under the corpus write lock; in-flight miner
// queries keep their copy-on-write snapshots) and are appended to the
// storage backend so they replay on the next boot. Invalid trips are
// reported per item and do not fail the batch.
//
// Safe for concurrent use with Recommend and with other IngestTrips calls;
// no core lock is held across the backend append.
func (s *System) IngestTrips(trips []traj.Trajectory) IngestReport {
	var valid []traj.Trajectory
	var rej []IngestRejection
	for i := range trips {
		if reason := s.validateTrip(&trips[i]); reason != "" {
			rej = append(rej, IngestRejection{Index: i, Reason: reason})
			continue
		}
		valid = append(valid, trips[i])
	}
	if len(valid) > 0 {
		start := s.data.IngestTrips(valid)
		s.invalidateTripODs(valid)
		if err := s.backend.AppendTrips(tripsToRecords(valid, start)); err != nil {
			s.appendErrs.Add(1)
		}
	}
	return IngestReport{Accepted: len(valid), Rejected: rej, TotalTrips: s.data.NumTrips()}
}

// validateTrip checks a trajectory against the road network; an empty string
// means acceptable. Only the matched route matters to the miners, so raw GPS
// samples are not required.
func (s *System) validateTrip(tr *traj.Trajectory) string {
	if tr.Route.Empty() {
		return "route has fewer than 2 nodes"
	}
	n := roadnet.NodeID(s.graph.NumNodes())
	for _, nd := range tr.Route.Nodes {
		if nd < 0 || nd >= n {
			return fmt.Sprintf("route node %d outside this %d-node road network", nd, n)
		}
	}
	if !tr.Route.Valid(s.graph) {
		return "route is not connected in the road network"
	}
	if d := float64(tr.Depart); d < 0 || math.IsNaN(d) || math.IsInf(d, 0) {
		return fmt.Sprintf("departure time %v is negative or not finite", d)
	}
	return ""
}

// invalidateTripODs drops the cached candidate sets of every distinct OD in
// the batch, across all departure slots: a new trip is fresh mining evidence
// for its OD pair at any time of day (MPR and LDR ignore the departure time
// entirely). Candidate sets for *nearby* ODs (within the LDR match radius)
// are left to LRU turnover — enumerating them would cost more than the
// staleness it avoids; see DESIGN.md §9.
func (s *System) invalidateTripODs(trips []traj.Trajectory) {
	type od struct{ from, to roadnet.NodeID }
	seen := map[od]bool{}
	for i := range trips {
		r := trips[i].Route
		k := od{r.Source(), r.Dest()}
		if seen[k] {
			continue
		}
		seen[k] = true
		for slot := range truth.Slots {
			s.routes.Invalidate(routecache.Key{From: int64(k.from), To: int64(k.to), Slot: slot})
		}
	}
}

// ---- record conversions ----

func tripsToRecords(trips []traj.Trajectory, startSeq int64) []store.TrajRecord {
	recs := make([]store.TrajRecord, len(trips))
	for i := range trips {
		recs[i] = tripToRecord(&trips[i], startSeq+int64(i))
	}
	return recs
}

// tripsToRecordsSeqs converts trips carrying their original (possibly
// non-contiguous) sequence numbers — the snapshot-capture path, where a
// replayed stream may have gaps.
func tripsToRecordsSeqs(trips []traj.Trajectory, seqs []int64) []store.TrajRecord {
	recs := make([]store.TrajRecord, len(trips))
	for i := range trips {
		recs[i] = tripToRecord(&trips[i], seqs[i])
	}
	return recs
}

func tripToRecord(tr *traj.Trajectory, seq int64) store.TrajRecord {
	nodes := make([]int32, len(tr.Route.Nodes))
	for j, n := range tr.Route.Nodes {
		nodes[j] = int32(n)
	}
	return store.TrajRecord{
		Seq: seq, Driver: int32(tr.Driver),
		DepartMin: float64(tr.Depart), Nodes: nodes,
	}
}

func recordToTrip(r store.TrajRecord) traj.Trajectory {
	nodes := make([]roadnet.NodeID, len(r.Nodes))
	for i, n := range r.Nodes {
		nodes[i] = roadnet.NodeID(n)
	}
	return traj.Trajectory{
		Driver: traj.DriverID(r.Driver),
		Depart: routing.SimTime(r.DepartMin),
		Route:  roadnet.Route{Nodes: nodes},
	}
}
