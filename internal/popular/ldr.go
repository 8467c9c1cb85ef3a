package popular

import (
	"cmp"
	"slices"

	"crowdplanner/internal/roadnet"
	"crowdplanner/internal/routing"
	"crowdplanner/internal/traj"
)

// LDR recommends the Local Drivers' Route in the spirit of Ceikute & Jensen
// [3]: drivers who repeatedly travel an OD pair are treated as local experts;
// each expert's own most frequent route casts one vote, and the route with
// the most expert votes wins. When no driver qualifies as an expert the
// miner falls back to the plain mode over matching trips.
type LDR struct {
	// MatchRadius is how far (meters) a trip's endpoints may be from the
	// requested endpoints and still count for this OD pair.
	MatchRadius float64
	// MinDriverTrips is the number of matching trips a driver needs to be
	// considered a local expert.
	MinDriverTrips int
	// MinSupport is the minimum total matching trips below which the miner
	// declares the region too sparse.
	MinSupport int
}

// NewLDR returns an LDR miner with a 300 m endpoint radius.
func NewLDR() *LDR {
	return &LDR{MatchRadius: 300, MinDriverTrips: 2, MinSupport: 2}
}

// Name implements Miner.
func (m *LDR) Name() string { return "LDR" }

// Mine implements Miner. The matching trips come from the dataset's
// aggregate counts by driver and route, so a query costs no more on a
// larger corpus; the votes are the ones a tally over the individual trips
// would cast.
func (m *LDR) Mine(ds *traj.Dataset, from, to roadnet.NodeID, _ routing.SimTime) (roadnet.Route, float64, error) {
	if err := validateOD(ds.Graph, from, to); err != nil {
		return roadnet.Route{}, 0, err
	}
	counts := ds.TripCounts(from, to, m.MatchRadius)
	total := 0
	for _, c := range counts {
		total += c.Trips
	}
	if total < m.MinSupport {
		return roadnet.Route{}, 0, ErrNotEnoughData
	}

	// Each local expert votes with their personal most frequent route. The
	// counts are sorted by driver, so each driver's routes are one run.
	var experts []routeVotes
	for i := 0; i < len(counts); {
		var mine []routeVotes
		trips := 0
		for d := counts[i].Driver; i < len(counts) && counts[i].Driver == d; i++ {
			mine = append(mine, routeVotes{counts[i].Route, counts[i].Trips})
			trips += counts[i].Trips
		}
		if trips >= m.MinDriverTrips {
			experts = append(experts, routeVotes{top(ds, mine).route, 1})
		}
	}
	if len(experts) > 0 {
		best := top(ds, merged(experts))
		return ds.Route(best.route), float64(best.votes) / float64(len(experts)), nil
	}

	// Fallback: mode over all matching trips.
	if total == 0 {
		return roadnet.Route{}, 0, ErrNotEnoughData
	}
	all := make([]routeVotes, len(counts))
	for i, c := range counts {
		all[i] = routeVotes{c.Route, c.Trips}
	}
	best := top(ds, merged(all))
	return ds.Route(best.route), float64(best.votes) / float64(total), nil
}

// routeVotes is a distinct route and the votes (or trips) it drew.
type routeVotes struct {
	route traj.RouteID
	votes int
}

// merged sums the votes of equal routes, sorting by route ID.
func merged(rv []routeVotes) []routeVotes {
	slices.SortFunc(rv, func(a, b routeVotes) int { return cmp.Compare(a.route, b.route) })
	out := rv[:0]
	for _, v := range rv {
		if n := len(out); n > 0 && out[n-1].route == v.route {
			out[n-1].votes += v.votes
			continue
		}
		out = append(out, v)
	}
	return out
}

// top returns the route with the most votes among distinct routes, ties
// going to the smaller Route.String(); the strings are built only for a
// tie.
func top(ds *traj.Dataset, rv []routeVotes) routeVotes {
	best, bestKey := rv[0], ""
	for _, v := range rv[1:] {
		switch {
		case v.votes > best.votes:
			best, bestKey = v, ""
		case v.votes == best.votes:
			if bestKey == "" {
				bestKey = ds.Route(best.route).String()
			}
			if k := ds.Route(v.route).String(); k < bestKey {
				best, bestKey = v, k
			}
		}
	}
	return best
}
