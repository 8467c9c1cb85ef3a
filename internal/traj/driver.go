// Package traj simulates the historical trajectory dataset the paper mines.
//
// The paper's premise (after Ceikute & Jensen [3]) is that experienced
// drivers optimise latent criteria — traffic lights, road class comfort,
// familiarity — that distance/time-optimising web services do not capture.
// This package reifies that premise: every simulated driver carries latent
// preference weights and drives the route optimal under *their* cost, with
// small per-trip noise. The population mode of those choices defines the
// measurable ground-truth "best" route that CrowdPlanner and all baselines
// are scored against.
package traj

import (
	"math"
	"math/rand"

	"crowdplanner/internal/geo"
	"crowdplanner/internal/roadnet"
	"crowdplanner/internal/routing"
)

// DriverID identifies a simulated driver.
type DriverID int32

// Preferences are a driver's latent route-choice weights. A driver's
// perceived cost of an edge is:
//
//	time(e,t)·WTime + length(e)/1000·WDist + lights(e)·WLights +
//	time(e,t)·classDiscomfort(e)·WComfort
//
// plus familiarity: edges far from the driver's home zone feel costlier.
type Preferences struct {
	WTime     float64 // weight on travel minutes
	WDist     float64 // weight on kilometers
	WLights   float64 // per-light penalty (minutes-equivalent)
	WComfort  float64 // multiplier on class discomfort
	WFamiliar float64 // penalty multiplier for unfamiliar areas
}

// Driver is a simulated driver with latent preferences and a home zone.
type Driver struct {
	ID        DriverID
	Home      geo.Point
	Radius    float64 // familiarity radius around home, meters
	Prefs     Preferences
	TripNoise float64 // stddev of multiplicative per-edge noise per trip
}

// classDiscomfort expresses how uncomfortable a road class feels per minute
// driven; experienced drivers prefer arterials over rat-runs.
func classDiscomfort(c roadnet.RoadClass) float64 {
	switch c {
	case roadnet.Local:
		return 0.5
	case roadnet.Collector:
		return 0.2
	case roadnet.Arterial:
		return 0.0
	case roadnet.Highway:
		return 0.05
	default:
		return 0.5
	}
}

// PerceivedCost returns the driver's subjective cost for an edge at time t.
// It is deterministic; per-trip noise is applied by RouteFor.
func (d *Driver) PerceivedCost(g *roadnet.Graph, e *roadnet.Edge, t routing.SimTime) float64 {
	return d.perceivedCost(g, e, routing.TravelTimeCost.Cost(e, t))
}

// perceivedCost is PerceivedCost given the edge's travel time tt.
func (d *Driver) perceivedCost(g *roadnet.Graph, e *roadnet.Edge, tt float64) float64 {
	cost := d.Prefs.WTime*tt +
		d.Prefs.WDist*e.Length/1000 +
		d.Prefs.WLights*float64(e.Lights) +
		d.Prefs.WComfort*classDiscomfort(e.Class)*tt
	if d.Prefs.WFamiliar > 0 && d.Radius > 0 {
		mid := geo.Midpoint(g.Node(e.From).Pt, g.Node(e.To).Pt)
		dist := geo.Dist(mid, d.Home)
		if dist > d.Radius {
			// Unfamiliar area: cost inflates smoothly with distance beyond
			// the familiarity radius.
			cost *= 1 + d.Prefs.WFamiliar*math.Min(1.5, (dist-d.Radius)/d.Radius)
		}
	}
	return cost
}

// minCostPerMeter is the driver's admissible per-meter lower bound on
// PerceivedCost over g: the time term is at least WTime·(the travel-time
// model's per-meter bound for g), the distance term WDist/1000 per length
// meter scaled by the graph's length ratio, and the comfort and familiarity
// terms only ever add cost (the familiarity factor multiplies by >= 1).
func (d *Driver) minCostPerMeter(g *roadnet.Graph) float64 {
	return d.Prefs.WTime*routing.TravelTimeCost.MinCostPerMeter(g) +
		d.Prefs.WDist/1000*g.MinLengthRatio()
}

// boundWeights are three static per-edge weights that every driver's
// perceived cost dominates term by term: free-flow minutes with lights
// (TravelTimeCost.MinEdgeCost, at most the congested travel time), length in
// meters, and the light count. fillBound weighs them by WTime, WDist/1000
// and WLights, in that order.
type boundWeights [3][]float64

func newBoundWeights(g *roadnet.Graph) boundWeights {
	var w boundWeights
	for i := range w {
		w[i] = make([]float64, g.NumEdges())
	}
	free := routing.TravelTimeCost.(routing.EdgeBounder)
	for i := range w[0] {
		e := g.Edge(roadnet.EdgeID(i))
		w[0][i], w[1][i], w[2][i] = free.MinEdgeCost(g, e), e.Length, float64(e.Lights)
	}
	return w
}

// destBound holds every node's exact distance to one destination under each
// bound weight. It is shared by all drivers polled for that destination.
type destBound [3][]float64

// to runs the three reverse sweeps from dst.
func (w boundWeights) to(g *roadnet.Graph, dst roadnet.NodeID) (destBound, error) {
	var b destBound
	for i := range w {
		b[i] = make([]float64, g.NumNodes())
		if err := routing.DistancesTo(g, w[i], dst, b[i]); err != nil {
			return destBound{}, err
		}
	}
	return b, nil
}

// fillBound writes the driver's destination bound into h:
//
//	h[v] = WTime·T[v] + WDist/1000·L[v] + WLights·N[v]
//
// Each term is an exact shortest-path distance to the destination under a
// weight no larger than the matching term of PerceivedCost, and comfort and
// familiarity only add (the familiarity factor multiplies by >= 1), so h is
// admissible and consistent for this driver: the destination acts as its
// own ALT landmark. Terms with a zero weight are skipped, so 0·(+Inf) never
// makes a NaN; the preference weights are non-negative.
func (d *Driver) fillBound(b destBound, h []float64) {
	clear(h)
	for i, w := range [...]float64{d.Prefs.WTime, d.Prefs.WDist / 1000, d.Prefs.WLights} {
		if !(w > 0) {
			continue
		}
		for v, x := range b[i] {
			h[v] += w * x
		}
	}
}

// preferredRoute is the noise-free preferred-route search: A* under the
// driver's perceived cost with the heuristic max(straight-line bound,
// destination bound). h is scratch with an entry per node.
func (d *Driver) preferredRoute(g *roadnet.Graph, src, dst roadnet.NodeID, t routing.SimTime, b destBound, h []float64) (roadnet.Route, error) {
	d.fillBound(b, h)
	var tt routing.TravelTimeCache
	cost := routing.BoundedCostFn(func(e *roadnet.Edge, tm routing.SimTime) float64 {
		return d.perceivedCost(g, e, tt.Cost(e, tm))
	}, d.minCostPerMeter(g))
	r, _, err := routing.AStarBounded(g, src, dst, cost, t, h)
	return r, err
}

// RouteFor returns the route this driver would take from src to dst at time
// t. rng supplies the per-trip noise; pass nil for the noise-free preferred
// route, which runs the same bounded search as GroundTruth with the
// destination bound computed for this one call. Per-trip noise is
// multiplicative with factors below 1, so no bound holds for noisy searches
// and they stay plain Dijkstra.
func (d *Driver) RouteFor(g *roadnet.Graph, src, dst roadnet.NodeID, t routing.SimTime, rng *rand.Rand) (roadnet.Route, error) {
	if rng == nil || d.TripNoise <= 0 {
		b, err := newBoundWeights(g).to(g, dst)
		if err != nil {
			return roadnet.Route{}, err
		}
		return d.preferredRoute(g, src, dst, t, b, make([]float64, g.NumNodes()))
	}
	var tt routing.TravelTimeCache
	cost := routing.CostFn(func(e *roadnet.Edge, tm routing.SimTime) float64 {
		// Multiplicative noise keeps costs positive. The noise is drawn per
		// edge per call, modelling day-to-day whim.
		return d.perceivedCost(g, e, tt.Cost(e, tm)) * math.Exp(rng.NormFloat64()*d.TripNoise)
	})
	r, _, err := routing.ShortestPath(g, src, dst, cost, t)
	return r, err
}

// PopulationConfig configures driver-population generation.
type PopulationConfig struct {
	NumDrivers int
	Seed       int64
	// Archetype mixture weights; they need not sum to 1 (normalized).
	FracCommuter float64 // time-focused, familiar with arterials
	FracRelaxed  float64 // comfort-focused, avoids lights
	FracEconomic float64 // distance-focused
}

// DefaultPopulationConfig returns a balanced population of 300 drivers.
func DefaultPopulationConfig() PopulationConfig {
	return PopulationConfig{
		NumDrivers:   300,
		Seed:         7,
		FracCommuter: 0.5,
		FracRelaxed:  0.3,
		FracEconomic: 0.2,
	}
}

// NewPopulation generates drivers with homes distributed over the network
// bounding box and archetype-based latent preferences with individual
// variation.
func NewPopulation(g *roadnet.Graph, cfg PopulationConfig) []*Driver {
	rng := rand.New(rand.NewSource(cfg.Seed))
	bbox := g.BBox()
	total := cfg.FracCommuter + cfg.FracRelaxed + cfg.FracEconomic
	if total <= 0 {
		total = 1
		cfg.FracCommuter = 1
	}
	drivers := make([]*Driver, cfg.NumDrivers)
	for i := range drivers {
		home := geo.Point{
			X: bbox.Min.X + rng.Float64()*bbox.Width(),
			Y: bbox.Min.Y + rng.Float64()*bbox.Height(),
		}
		u := rng.Float64() * total
		var p Preferences
		jitter := func(base, spread float64) float64 {
			return math.Max(0, base+rng.NormFloat64()*spread)
		}
		switch {
		case u < cfg.FracCommuter:
			p = Preferences{
				WTime:     jitter(1.0, 0.15),
				WDist:     jitter(0.1, 0.05),
				WLights:   jitter(0.8, 0.3),
				WComfort:  jitter(0.6, 0.2),
				WFamiliar: jitter(0.3, 0.1),
			}
		case u < cfg.FracCommuter+cfg.FracRelaxed:
			p = Preferences{
				WTime:     jitter(0.5, 0.1),
				WDist:     jitter(0.1, 0.05),
				WLights:   jitter(1.6, 0.4),
				WComfort:  jitter(1.2, 0.3),
				WFamiliar: jitter(0.5, 0.15),
			}
		default:
			p = Preferences{
				WTime:     jitter(0.3, 0.1),
				WDist:     jitter(1.2, 0.2),
				WLights:   jitter(0.3, 0.15),
				WComfort:  jitter(0.2, 0.1),
				WFamiliar: jitter(0.2, 0.1),
			}
		}
		drivers[i] = &Driver{
			ID:        DriverID(i),
			Home:      home,
			Radius:    1500 + rng.Float64()*2500,
			Prefs:     p,
			TripNoise: 0.05 + rng.Float64()*0.1,
		}
	}
	return drivers
}
