package routing

import (
	"math"
	"runtime"
	"sync"
	"time"

	"crowdplanner/internal/geo"
	"crowdplanner/internal/roadnet"
)

// This file implements the ALT preprocessing tier (A*, Landmarks, Triangle
// inequality). Preprocess selects a small set of landmarks by farthest-point
// selection and runs forward and reverse one-to-all Dijkstra from each under
// a time-independent lower-bound metric derived from the cost function. At
// query time the triangle inequality turns those tables into a goal-directed
// heuristic that is much tighter than the straight-line bound, while staying
// admissible and consistent — so ALT-accelerated searches return the same
// routes as plain Dijkstra, just after settling far fewer nodes.
//
// Admissibility argument. Let w(e) be the lower-bound weight of edge e:
// w(e) <= Cost(e, t) for every departure time t (free flow, no congestion).
// Let dL(a, b) be the shortest-path distance under w. Any real route from a
// to b costs at least its w-weight, which is at least dL(a, b) — so dL lower
// bounds the true time-dependent cost. By the triangle inequality, for any
// landmark L:
//
//	dL(v, dst) >= dL(L, dst) - dL(L, v)     (forward table)
//	dL(v, dst) >= dL(v, L)  - dL(dst, L)    (reverse table)
//
// Both right-hand sides are computable from the precomputed tables alone, and
// both lower-bound the true cost of reaching dst from v. Their max over the
// active landmarks, maxed again with the straight-line bound, is therefore
// admissible; each term is of the form f(v) + const or -f(v) + const for a
// shortest-path potential f, so the max is also consistent. Consistent
// heuristics settle nodes with final distances at pop under the engine's
// strict (prio, node) order, which is what keeps ALT routes identical to
// Dijkstra's.

// PrepConfig controls landmark preprocessing.
type PrepConfig struct {
	// Landmarks is the number of landmarks to select (capped at the node
	// count). More landmarks tighten bounds but grow the tables linearly.
	Landmarks int
	// Active is the number of landmarks consulted per query, chosen as the
	// ones with the tightest bound at the source. Capped at
	// maxActiveLandmarks.
	Active int
}

// DefaultPrepConfig returns the standard configuration: 64 landmarks with
// the best 8 active per query. The config was swept on the million-node
// benchmark city: query speedup roughly doubles from 16 to 64 landmarks and
// saturates there (128 landmarks with 16 active measured no better — the
// extra max() terms per relaxed edge eat the tighter bound), so 64/8 is the
// knee. Tables cost 16 bytes per node per landmark; shrink Landmarks when
// memory matters more than query latency.
func DefaultPrepConfig() PrepConfig { return PrepConfig{Landmarks: 64, Active: 8} }

// EdgeBounder is an optional CostFunc extension providing a tight per-edge
// lower bound: MinEdgeCost(g, e) <= Cost(e, t) must hold for every t.
// Preprocessing uses it for the landmark metric when available; cost
// functions without it fall back to MinCostPerMeter times the straight-line
// span of the edge, which is admissible but looser (it ignores per-edge
// speed limits, curvature, and light penalties).
type EdgeBounder interface {
	MinEdgeCost(g *roadnet.Graph, e *roadnet.Edge) float64
}

// Preprocessed is a graph wrapper carrying ALT landmark tables for one
// (graph, cost) pair. Build one with Preprocess, then issue queries through
// its methods; the zero value is not usable. A Preprocessed is immutable
// after construction and safe for concurrent queries. It must not be used
// after the graph is mutated (tables would silently go stale).
type Preprocessed struct {
	g    *roadnet.Graph
	cost CostFunc
	mcpm float64

	n      int
	active int
	lands  []roadnet.NodeID
	// fwd and rev are flat row-major slabs, len(lands)*n entries each:
	// fwd[l*n+v] = dL(lands[l], v), rev[l*n+v] = dL(v, lands[l]), +Inf when
	// unreachable under the lower-bound metric.
	fwd []float64
	rev []float64

	buildNs int64
}

// PrepStats describes a Preprocessed instance for observability: counts,
// build wall-time, and the resident size of the distance tables.
type PrepStats struct {
	Landmarks  int     `json:"landmarks"`
	Nodes      int     `json:"nodes"`
	BuildMs    float64 `json:"build_ms"`
	TableBytes int64   `json:"table_bytes"`
}

// Stats returns the instance's preprocessing statistics.
func (p *Preprocessed) Stats() PrepStats {
	return PrepStats{
		Landmarks:  len(p.lands),
		Nodes:      p.n,
		BuildMs:    float64(p.buildNs) / 1e6,
		TableBytes: int64(len(p.fwd)+len(p.rev)) * 8,
	}
}

// Landmarks returns the selected landmark nodes (do not modify).
func (p *Preprocessed) Landmarks() []roadnet.NodeID { return p.lands }

// Graph returns the underlying graph.
func (p *Preprocessed) Graph() *roadnet.Graph { return p.g }

// Preprocess builds ALT landmark tables for g under cost. Selection is
// farthest-point: the first landmark is the node farthest from node 0 under
// the lower-bound metric, and each next landmark maximizes the distance to
// the nearest already-selected landmark. All ties break toward the lowest
// node ID, so two builds over the same inputs produce identical tables.
func Preprocess(g *roadnet.Graph, cost CostFunc, cfg PrepConfig) *Preprocessed {
	start := time.Now() //cplint:ignore wallclock -- build wall-time is observability only (PrepStats.BuildNs / prep_build_ns counter); no search decision reads it
	n := g.NumNodes()
	p := &Preprocessed{g: g, cost: cost, mcpm: cost.MinCostPerMeter(g), n: n}
	if cfg.Landmarks <= 0 {
		cfg.Landmarks = DefaultPrepConfig().Landmarks
	}
	if cfg.Active <= 0 {
		cfg.Active = DefaultPrepConfig().Active
	}
	p.active = min(cfg.Active, maxActiveLandmarks)
	nl := min(cfg.Landmarks, n)
	if nl == 0 {
		p.buildNs = time.Since(start).Nanoseconds() //cplint:ignore wallclock -- observability only, see above
		return p
	}

	w := edgeBounds(g, cost)
	p.fwd = make([]float64, 0, nl*n)
	p.rev = make([]float64, nl*n)

	// Farthest-point selection. minDist[v] tracks the distance from the
	// nearest selected landmark to v (forward metric); the next landmark is
	// its argmax, with +Inf (nodes unreachable from every landmark so far,
	// i.e. other weak components) deliberately sorting first so coverage
	// spreads across components. Each selected landmark's forward row is
	// produced by the same one-to-all run that updates minDist, so selection
	// costs one extra sweep total (the seed run from node 0).
	ms := newMetricSearch(n)
	seed := make([]float64, n)
	ms.oneToAll(g, w, 0, seed, false)
	pick := argmaxDist(seed, nil)
	taken := make(map[roadnet.NodeID]bool, nl)
	minDist := seed // reuse: overwritten below with min over landmark rows
	for i := range minDist {
		minDist[i] = math.Inf(1)
	}
	for len(p.lands) < nl {
		p.lands = append(p.lands, pick)
		taken[pick] = true
		row := p.fwd[len(p.fwd) : len(p.fwd)+n]
		p.fwd = p.fwd[:len(p.fwd)+n]
		ms.oneToAll(g, w, pick, row, false)
		for v, d := range row {
			if d < minDist[v] {
				minDist[v] = d
			}
		}
		if len(p.lands) == nl {
			break
		}
		pick = argmaxDist(minDist, taken)
	}

	// Reverse rows are independent of selection and of each other (disjoint
	// slab rows), so they fan out across GOMAXPROCS workers, each with its
	// own scratch.
	workers := min(runtime.GOMAXPROCS(0), len(p.lands))
	var wg sync.WaitGroup
	next := make(chan int)
	for range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rms := newMetricSearch(n)
			for li := range next {
				rms.oneToAll(g, w, p.lands[li], p.rev[li*n:(li+1)*n], true)
			}
		}()
	}
	for li := range p.lands {
		next <- li
	}
	close(next)
	wg.Wait()

	p.buildNs = time.Since(start).Nanoseconds() //cplint:ignore wallclock -- observability only, see above
	counters.prepBuilds.Add(1)
	counters.prepLandmarks.Add(uint64(len(p.lands)))
	counters.prepBuildNs.Add(uint64(p.buildNs))
	counters.prepTableBytes.Add(uint64(len(p.fwd)+len(p.rev)) * 8)
	return p
}

// edgeBounds computes the per-edge lower-bound weights the landmark metric
// runs on: the EdgeBounder bound when the cost function provides one, else
// MinCostPerMeter times the straight-line span. Negative or NaN bounds
// clamp to 0 (a zero weight is always admissible).
func edgeBounds(g *roadnet.Graph, cost CostFunc) []float64 {
	w := make([]float64, g.NumEdges())
	eb, hasEB := cost.(EdgeBounder)
	mcpm := cost.MinCostPerMeter(g)
	for i := range w {
		e := g.Edge(roadnet.EdgeID(i))
		var b float64
		if hasEB {
			b = eb.MinEdgeCost(g, e)
		} else if mcpm > 0 {
			b = mcpm * geo.Dist(g.Node(e.From).Pt, g.Node(e.To).Pt)
		}
		if !(b > 0) { // catches negatives and NaN
			b = 0
		}
		w[i] = b
	}
	return w
}

// argmaxDist returns the index of the maximum entry, skipping taken nodes,
// with +Inf sorting above every finite value and ties breaking to the lowest
// index. dist is never empty when called.
func argmaxDist(dist []float64, taken map[roadnet.NodeID]bool) roadnet.NodeID {
	best := roadnet.NodeID(-1)
	bestD := math.Inf(-1)
	for v, d := range dist {
		id := roadnet.NodeID(v)
		if taken[id] {
			continue
		}
		if best == -1 || d > bestD {
			best, bestD = id, d
		}
	}
	return best
}

// DistancesTo fills dist with every node's shortest-path distance to dst
// under the static, non-negative edge weights w (indexed by EdgeID), +Inf
// where dst is unreachable: the reverse one-to-all sweep the landmark tables
// are built from. For weights a cost function dominates, the result is an
// admissible and consistent lower bound for searches toward dst
// (AStarBounded). dist must have an entry per node and w one per edge.
func DistancesTo(g *roadnet.Graph, w []float64, dst roadnet.NodeID, dist []float64) error {
	n := g.NumNodes()
	if int(dst) >= n || dst < 0 {
		return errNodeRange
	}
	if len(dist) < n || len(w) < g.NumEdges() {
		return errShortSlice
	}
	newMetricSearch(n).oneToAll(g, w, dst, dist[:n], true)
	return nil
}

// metricSearch is the self-contained one-to-all Dijkstra used during
// preprocessing. It runs on precomputed edge weights (no CostFunc calls, no
// time dependence) and owns its scratch, so reverse rows can build in
// parallel without touching the query workspace pool.
type metricSearch struct {
	done []bool
	heap []heapEntry
}

func newMetricSearch(n int) *metricSearch {
	return &metricSearch{done: make([]bool, n), heap: make([]heapEntry, 0, 1024)}
}

// oneToAll fills dist with shortest-path distances from src under w (+Inf
// for unreachable nodes), following Out edges normally and In edges when
// reverse is set (distances *to* src). It is the preprocessing sweep kernel:
// nl+1 forward runs plus nl reverse runs per build, each relaxing every edge,
// so it carries the same allocation-freedom contract as the query kernels.
//
//cplint:hotpath
func (ms *metricSearch) oneToAll(g *roadnet.Graph, w []float64, src roadnet.NodeID, dist []float64, reverse bool) {
	for i := range dist {
		dist[i] = math.Inf(1)
	}
	for i := range ms.done {
		ms.done[i] = false
	}
	h := ms.heap[:0]
	dist[src] = 0
	h = metricPush(h, heapEntry{node: src})
	for len(h) > 0 {
		var top heapEntry
		top, h = metricPop(h)
		u := top.node
		if ms.done[u] {
			continue
		}
		ms.done[u] = true
		du := dist[u]
		edges := g.Out(u)
		if reverse {
			edges = g.In(u)
		}
		for _, eid := range edges {
			e := g.Edge(eid)
			v := e.To
			if reverse {
				v = e.From
			}
			if ms.done[v] {
				continue
			}
			nd := du + w[eid]
			if nd < dist[v] {
				dist[v] = nd
				h = metricPush(h, heapEntry{prio: nd, node: v})
			}
		}
	}
	ms.heap = h[:0]
}

// metricPush / metricPop are the same 4-ary value heap as the query engine,
// operating on a caller-owned slice (preprocessing runs outside the pooled
// workspaces).
//
//cplint:hotpath
func metricPush(h []heapEntry, e heapEntry) []heapEntry {
	//cplint:ignore hotalloc -- sanctioned: the backing array is ms.heap, preallocated to 1024 and reused across every sweep of a build, so growth amortizes to zero steady-state allocations
	h = append(h, e)
	i := len(h) - 1
	for i > 0 {
		p := (i - 1) / 4
		if !entryLess(e, h[p]) {
			break
		}
		h[i] = h[p]
		i = p
	}
	h[i] = e
	return h
}

//cplint:hotpath
func metricPop(h []heapEntry) (heapEntry, []heapEntry) {
	top := h[0]
	last := h[len(h)-1]
	h = h[:len(h)-1]
	if n := len(h); n > 0 {
		i := 0
		for {
			c := i*4 + 1
			if c >= n {
				break
			}
			m := c
			end := min(c+4, n)
			for j := c + 1; j < end; j++ {
				if entryLess(h[j], h[m]) {
					m = j
				}
			}
			if !entryLess(h[m], last) {
				break
			}
			h[i] = h[m]
			i = m
		}
		h[i] = last
	}
	return top, h
}

// activate selects the query's active landmarks: the p.active landmarks with
// the tightest bound at the source, among those whose forward and reverse
// distances at dst are both finite (a non-finite dst entry would poison the
// kernel's subtractions with Inf-Inf). Ties break toward the lower landmark
// index, keeping activation — and therefore the whole search — deterministic.
func (p *Preprocessed) activate(ws *searchSpace, src, dst roadnet.NodeID) {
	ws.altN = 0
	ws.altHsrc = 0
	if p.n == 0 {
		return
	}
	var scores [maxActiveLandmarks]float64
	si, di := int(src), int(dst)
	for l := range p.lands {
		base := l * p.n
		fdst, rdst := p.fwd[base+di], p.rev[base+di]
		if math.IsInf(fdst, 1) || math.IsInf(rdst, 1) {
			continue
		}
		score := fdst - p.fwd[base+si]
		if b := p.rev[base+si] - rdst; b > score {
			score = b
		}
		// Insert into the running top-Active set (selection by insertion:
		// at most maxActiveLandmarks slots, strictly-better-score moves
		// ahead, equal scores keep the earlier landmark first).
		pos := ws.altN
		for pos > 0 && score > scores[pos-1] {
			pos--
		}
		if pos >= p.active {
			continue
		}
		limit := min(ws.altN+1, p.active)
		for j := limit - 1; j > pos; j-- {
			scores[j] = scores[j-1]
			ws.altLands[j] = ws.altLands[j-1]
			ws.altFdst[j] = ws.altFdst[j-1]
			ws.altRdst[j] = ws.altRdst[j-1]
		}
		scores[pos] = score
		ws.altLands[pos] = int32(l)
		ws.altFdst[pos] = fdst
		ws.altRdst[pos] = rdst
		ws.altN = limit
	}
	if ws.altN > 0 {
		ws.altHsrc = scores[0]
	}
}

// altBound is the ALT heuristic kernel: the tightest lower bound on the
// remaining cost from v to the query's destination, combining the active
// landmarks' triangle-inequality bounds with the straight-line bound the
// caller computed. Runs once per relaxed edge.
//
//cplint:hotpath
func (p *Preprocessed) altBound(ws *searchSpace, v roadnet.NodeID, straight float64) float64 {
	best := straight
	vi := int(v)
	for i := 0; i < ws.altN; i++ {
		base := int(ws.altLands[i]) * p.n
		if b := ws.altFdst[i] - p.fwd[base+vi]; b > best {
			best = b
		}
		if b := p.rev[base+vi] - ws.altRdst[i]; b > best {
			best = b
		}
	}
	return best
}

// AStar returns the same route and cost as the package-level AStar, using
// the landmark tables for a tighter (still admissible and consistent)
// heuristic. Safe for concurrent use.
func (p *Preprocessed) AStar(src, dst roadnet.NodeID, t SimTime) (roadnet.Route, float64, error) {
	ws := acquireSpace(p.g)
	r, c, err := search(p.g, src, dst, p.cost, t, p.mcpm, ws, false, p, nil)
	releaseSpace(ws)
	return r, c, err
}

// ShortestPath is an alias for AStar: with an admissible heuristic the two
// return identical results, so the preprocessed tier always goes
// goal-directed.
func (p *Preprocessed) ShortestPath(src, dst roadnet.NodeID, t SimTime) (roadnet.Route, float64, error) {
	return p.AStar(src, dst, t)
}

// KShortest mirrors the package-level KShortest with every spur search
// ALT-accelerated. Banning nodes and edges only removes paths, so the
// landmark bounds stay admissible for spur searches, exactly like the
// straight-line bound.
func (p *Preprocessed) KShortest(src, dst roadnet.NodeID, k int, t SimTime) ([]roadnet.Route, []float64, error) {
	return kShortest(p.g, src, dst, k, p.cost, t, p)
}
