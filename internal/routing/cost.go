package routing

import (
	"crowdplanner/internal/roadnet"
)

// CostFunc assigns a non-negative cost to traversing an edge when departing
// at time t. Route search minimizes the sum of edge costs. Implementations
// must be deterministic for an (edge, t) pair.
//
// MinCostPerMeter is the hook that makes goal-directed (A*) search free for
// callers: it returns a lower bound b, for the given graph, such that
// Cost(e, t) >= b·dist(e.From, e.To) (straight-line) for every edge and
// time. Then h(n) = b·dist(n, dst) is an admissible and consistent
// heuristic and AStar returns the same cost as ShortestPath. The built-in
// cost models derive b from the graph's construction-time stats
// (MaxSpeedKmh, MinLengthRatio), so the bound holds for any graph however
// it was built — over-limit edges or edges shorter than the crow flies
// weaken the heuristic instead of breaking admissibility. Return 0 when no
// bound is known; goal-directed search then degrades to plain Dijkstra.
type CostFunc interface {
	Cost(e *roadnet.Edge, t SimTime) float64
	MinCostPerMeter(g *roadnet.Graph) float64
}

// CostFn adapts an ad-hoc cost function with no known per-meter lower bound
// (AStar falls back to Dijkstra for it).
func CostFn(f func(e *roadnet.Edge, t SimTime) float64) CostFunc {
	return costFn{f: f}
}

// BoundedCostFn adapts a cost function together with a caller-guaranteed
// admissible lower bound: f(e, t) >= minPerMeter·dist(e.From, e.To)
// (straight-line meters) must hold for every edge and time, or searches may
// return suboptimal routes.
func BoundedCostFn(f func(e *roadnet.Edge, t SimTime) float64, minPerMeter float64) CostFunc {
	return costFn{f: f, mcpm: minPerMeter}
}

type costFn struct {
	f    func(e *roadnet.Edge, t SimTime) float64
	mcpm float64
}

func (c costFn) Cost(e *roadnet.Edge, t SimTime) float64 { return c.f(e, t) }
func (c costFn) MinCostPerMeter(*roadnet.Graph) float64  { return c.mcpm }

// DistanceCost returns edge length in meters. Minimizing it yields the
// shortest route, the first of the two web-service-style providers. Its
// per-meter bound is the graph's length ratio (1 when every edge is at
// least as long as the straight line between its endpoints).
var DistanceCost CostFunc = distanceCost{}

type distanceCost struct{}

func (distanceCost) Cost(e *roadnet.Edge, _ SimTime) float64 { return e.Length }
func (distanceCost) MinCostPerMeter(g *roadnet.Graph) float64 {
	return g.MinLengthRatio()
}

// MinEdgeCost implements EdgeBounder: the distance cost is time-independent,
// so the edge's own length is an exact per-edge bound — landmark distances
// under it equal true distance-cost distances, giving ALT its tightest
// possible triangle-inequality bounds.
func (distanceCost) MinEdgeCost(_ *roadnet.Graph, e *roadnet.Edge) float64 { return e.Length }

// lightPenaltyMinutes is the expected delay per traffic light used by the
// travel-time model.
const lightPenaltyMinutes = 0.5

// TravelTimeCost returns the expected traversal time of the edge in minutes
// at departure time t, including congestion and traffic-light delay.
// Minimizing it yields the fastest route, the second web-service provider.
// Its per-meter lower bound is free flow at the graph's fastest speed limit
// with no lights — 60/(1000·MaxSpeedKmh) minutes per meter — scaled by the
// graph's length ratio (congestion factors are always >= 1 and lights only
// add, so the bound is admissible).
var TravelTimeCost CostFunc = travelTimeCost{}

type travelTimeCost struct{}

func (travelTimeCost) Cost(e *roadnet.Edge, t SimTime) float64 {
	major := e.Class >= roadnet.Arterial
	return congestedMinutes(e, CongestionFactor(t.HourOfDay(), major))
}

// congestedMinutes is the travel-time model: free-flow minutes scaled by the
// congestion factor, plus the light delay.
func congestedMinutes(e *roadnet.Edge, factor float64) float64 {
	return e.BaseTravelMinutes()*factor + float64(e.Lights)*lightPenaltyMinutes
}

// TravelTimeCache evaluates TravelTimeCost with the clock memoised for the
// last departure time seen: the hour of day and the congestion factor's
// shared part once per time, each class's own peak only when an edge of
// that class is first priced at it. A search costs every out-edge of a
// settled node at the same time t+dist[u], so each settled node pays for
// the clock once instead of once per relaxed edge. Cost is bit-identical to
// TravelTimeCost.Cost. The zero value is ready to use; a TravelTimeCache is
// not safe for concurrent use.
type TravelTimeCache struct {
	t                    SimTime
	valid                bool
	hour, shared         float64
	major, minor         float64 // the class factors, once haveMajor/haveMinor
	haveMajor, haveMinor bool
}

// Cost returns TravelTimeCost.Cost(e, t).
//
//cplint:hotpath
func (c *TravelTimeCache) Cost(e *roadnet.Edge, t SimTime) float64 {
	if !c.valid || t != c.t {
		c.t, c.valid = t, true
		c.hour = t.HourOfDay()
		c.shared = sharedCongestion(c.hour)
		c.haveMajor, c.haveMinor = false, false
	}
	if e.Class >= roadnet.Arterial {
		if !c.haveMajor {
			c.major, c.haveMajor = c.shared+classPeak(c.hour, true), true
		}
		return congestedMinutes(e, c.major)
	}
	if !c.haveMinor {
		c.minor, c.haveMinor = c.shared+classPeak(c.hour, false), true
	}
	return congestedMinutes(e, c.minor)
}

func (travelTimeCost) MinCostPerMeter(g *roadnet.Graph) float64 {
	maxKmh := g.MaxSpeedKmh()
	if maxKmh <= 0 {
		return 0
	}
	return 60 / (1000 * maxKmh) * g.MinLengthRatio()
}

// MinEdgeCost implements EdgeBounder: free flow on this edge at its own
// speed limit plus its light penalty. CongestionFactor is always >= 1 (base
// 1.0 plus non-negative peaks), so BaseTravelMinutes·factor + lights >=
// BaseTravelMinutes + lights at every departure time — a per-edge bound far
// tighter than the graph-wide fastest-speed-limit per-meter rate, which is
// what makes travel-time ALT effective on graphs with mixed road classes.
func (travelTimeCost) MinEdgeCost(_ *roadnet.Graph, e *roadnet.Edge) float64 {
	return e.BaseTravelMinutes() + float64(e.Lights)*lightPenaltyMinutes
}

// TravelMinutes returns the total expected travel time of route r in minutes
// departing at t, advancing the clock edge by edge so congestion evolves
// along the trip.
func TravelMinutes(g *roadnet.Graph, r roadnet.Route, depart SimTime) float64 {
	var total float64
	now := depart
	for i := 1; i < len(r.Nodes); i++ {
		eid, ok := g.FindEdge(r.Nodes[i-1], r.Nodes[i])
		if !ok {
			continue
		}
		dt := TravelTimeCost.Cost(g.Edge(eid), now)
		total += dt
		now = now.Add(dt)
	}
	return total
}
