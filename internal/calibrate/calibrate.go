// Package calibrate rewrites continuous routes into landmark-based routes
// (paper Definition 3), the representation CrowdPlanner's task generation
// works on. It follows the anchor-based calibration idea of Su et al. [21]:
// landmarks act as anchor points, a route "passes" a landmark when its
// geometry comes within the landmark's anchor radius, and the rewritten
// route is the sequence of passed landmarks ordered by travel order.
package calibrate

import (
	"sort"

	"crowdplanner/internal/landmark"
	"crowdplanner/internal/roadnet"
	"crowdplanner/internal/traj"
)

// Config tunes calibration.
type Config struct {
	// AnchorRadius is the distance (meters) within which a point landmark is
	// considered "on" a route. Line/region landmarks additionally count
	// their Extent.
	AnchorRadius float64
}

// DefaultConfig uses a 120 m anchor radius, roughly half a block: a driver
// passing within half a block of a landmark would describe the route as
// "past" it.
func DefaultConfig() Config { return Config{AnchorRadius: 120} }

// LandmarkRoute is a route rewritten as a finite landmark sequence
// (paper Definition 3), each entry carrying its arc-length position.
type LandmarkRoute struct {
	Route     roadnet.Route
	Landmarks []landmark.ID // ordered by position along the route
	Positions []float64     // meters from the route start, parallel slice
}

// Contains reports whether the landmark appears on the calibrated route.
func (lr *LandmarkRoute) Contains(id landmark.ID) bool {
	for _, l := range lr.Landmarks {
		if l == id {
			return true
		}
	}
	return false
}

// IDSet returns the landmark IDs as a set.
func (lr *LandmarkRoute) IDSet() map[landmark.ID]bool {
	s := make(map[landmark.ID]bool, len(lr.Landmarks))
	for _, l := range lr.Landmarks {
		s[l] = true
	}
	return s
}

// Calibrate rewrites route r into its landmark-based form using the
// landmarks in set whose anchor circle the route geometry enters.
func Calibrate(g *roadnet.Graph, set *landmark.Set, r roadnet.Route, cfg Config) LandmarkRoute {
	lr := LandmarkRoute{Route: r}
	if len(r.Nodes) == 0 || set.Len() == 0 {
		return lr
	}
	pl := r.Polyline(g)
	bbox := pl.BBox()

	// Candidate landmarks: anchors within AnchorRadius + max extent of the
	// route's bounding box. Query via the set's spatial index around the
	// bbox center with a covering radius; for long routes this still beats
	// scanning every landmark because the index prunes by cell.
	maxReach := cfg.AnchorRadius
	for _, l := range set.All() {
		if l.Extent > 0 && l.Extent+cfg.AnchorRadius > maxReach {
			maxReach = l.Extent + cfg.AnchorRadius
		}
	}
	search := bbox.Buffer(maxReach)

	type hit struct {
		id  landmark.ID
		pos float64
	}
	var hits []hit
	for _, l := range set.All() {
		if !search.Contains(l.Pt) {
			continue
		}
		reach := cfg.AnchorRadius + l.Extent
		d, pos := pl.DistTo(l.Pt)
		if d <= reach {
			hits = append(hits, hit{id: l.ID, pos: pos})
		}
	}
	sort.Slice(hits, func(i, j int) bool {
		if hits[i].pos != hits[j].pos {
			return hits[i].pos < hits[j].pos
		}
		return hits[i].id < hits[j].id
	})
	for _, h := range hits {
		lr.Landmarks = append(lr.Landmarks, h.id)
		lr.Positions = append(lr.Positions, h.pos)
	}
	return lr
}

// TrajectoryVisits converts a trajectory corpus into traveller→landmark
// visits for HITS significance inference: each trip by driver d that passes
// landmark l contributes one visit, exactly as the paper couples taxi
// trajectories with check-ins. Traveller IDs are offset by travellerBase so
// they do not collide with check-in user IDs.
func TrajectoryVisits(ds *traj.Dataset, set *landmark.Set, cfg Config, travellerBase int32) []landmark.Visit {
	var visits []landmark.Visit
	for _, trip := range ds.Trips {
		if trip.Route.Empty() {
			continue
		}
		lr := Calibrate(ds.Graph, set, trip.Route, cfg)
		for _, id := range lr.Landmarks {
			visits = append(visits, landmark.Visit{
				Traveller: travellerBase + int32(trip.Driver),
				Landmark:  id,
			})
		}
	}
	return visits
}
