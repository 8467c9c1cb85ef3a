package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"crowdplanner/internal/core"
	"crowdplanner/internal/roadnet"
	"crowdplanner/internal/routing"
	"crowdplanner/internal/server"
)

// traffic runs one workload's clients against a world. Its request
// generators persist across phases, so a second phase continues the first
// one's request sequence.
type traffic interface {
	// drive runs the clients until ph is over and returns them. With a
	// non-nil tracedRun, the first sampled primary requests are traced.
	drive(ph phase, t *tracedRun) []*client
	// finish runs the end-of-run checks.
	finish()
	// extra reports workload-specific end-to-end metrics.
	extra(elapsed time.Duration) []metric
}

// workload describes one benchmark workload.
type workload struct {
	primary   endpoint
	durable   bool // diskstore backend, as cpserver -data-dir -no-fsync
	reconcile bool // a traced run fails beyond unattributedTolerance
	// prepare runs after the world is built, as part of set-up.
	prepare    func(w *world, o options) error
	newTraffic func(w *world, o options, res *result, mu *sync.Mutex) traffic
}

func runHotReuse(o options) (*result, error) { return hotReuse.run(o) }

func runColdCrowd(o options) (*result, error) { return coldCrowd.run(o) }

func runFeedAsync(o options) (*result, error) { return feedAsync.run(o) }

func recommendBody(req core.Request) []byte {
	b, _ := json.Marshal(server.RecommendRequest{From: req.From, To: req.To, DepartMin: float64(req.Depart)})
	return b
}

// departIn draws a departure time inside the given hour-of-day slot on a
// random day of the week.
func departIn(rng *rand.Rand, slot int) routing.SimTime {
	return routing.SimTime(rng.Intn(7)*1440+slot*60) + routing.SimTime(rng.Float64()*59)
}

// checkRecommend decodes a recommend reply and checks its route; it returns
// the decoded reply, or an error.
func (c *client) checkRecommend(g *roadnet.Graph, body []byte, req core.Request) (*server.RecommendResponse, error) {
	var out server.RecommendResponse
	if err := json.Unmarshal(body, &out); err != nil {
		return nil, fmt.Errorf("decoding recommend reply: %v", err)
	}
	if err := c.checkRoute(g, out.Route, req.From, req.To); err != nil {
		return nil, err
	}
	return &out, nil
}

// ---- hot-reuse ----

// hotKey is one OD×slot key of the hot-reuse working set, with a fixed
// departure time so its reply is byte-identical on every hit.
type hotKey struct {
	req  core.Request
	body []byte
}

const hotKeys = 300

// The hot-reuse request mix is cmd/cpload's serving mix (65% recommend, 10%
// batch, 10% ingest, 15% truth reads) with ingest left out, since ingest
// invalidates reuse: 65/90 recommend, 10/90 batch, 15/90 truth reads.
const (
	hotRecommendShare = 65.0 / 90
	hotBatchShare     = 10.0 / 90
)

// hotKeySet draws the working set: corpus ODs at random hour slots. The set
// is the same for every workload seed, which only reorders the requests:
// with a seed-drawn set, which keys landed on the top Zipf ranks moved the
// median latency and the warm-up time by 25-35% between seeds.
func hotKeySet(w *world) []hotKey {
	rng := rand.New(rand.NewSource(1))
	type od struct{ from, to roadnet.NodeID }
	var ods []od
	seenOD := map[od]bool{}
	for _, t := range w.trips {
		k := od{t.Route.Source(), t.Route.Dest()}
		if !seenOD[k] {
			seenOD[k] = true
			ods = append(ods, k)
		}
	}
	n := min(hotKeys, len(ods)*24/2)
	type key struct {
		od
		slot int
	}
	seen := map[key]bool{}
	var keys []hotKey
	for len(keys) < n {
		k := key{ods[rng.Intn(len(ods))], rng.Intn(24)}
		if seen[k] {
			continue
		}
		seen[k] = true
		req := core.Request{From: k.from, To: k.to, Depart: departIn(rng, k.slot)}
		keys = append(keys, hotKey{req, recommendBody(req)})
	}
	return keys
}

var hotReuse = workload{
	primary: epRecommend,
	// The untimed-in-steady-state warm-up: one request per key stores a
	// truth for it, so every timed recommend resolves at the reuse stage.
	prepare: func(w *world, o options) error {
		var res result
		c := newClient(w.h, &res, &sync.Mutex{})
		for _, k := range hotKeySet(w) {
			_, body := c.do(epRecommend, "POST", "/v1/recommend", k.body)
			if res.failed == 0 {
				if _, err := c.checkRecommend(w.g, body, k.req); err != nil {
					res.fail("warm-up: %v", err)
				}
			}
			if res.failed > 0 {
				return fmt.Errorf("warm-up: %s", res.failures[0])
			}
		}
		return nil
	},
	newTraffic: func(w *world, o options, res *result, mu *sync.Mutex) traffic {
		rng := rand.New(rand.NewSource(o.seed*31 + 1))
		keys := hotKeySet(w)
		return &hotTraffic{
			w: w, keys: keys, res: res, mu: mu,
			rng: rng, zipf: rand.NewZipf(rng, 1.2, 1, uint64(len(keys)-1)), known: map[int][]byte{},
		}
	},
}

type hotTraffic struct {
	w     *world
	keys  []hotKey
	res   *result
	mu    *sync.Mutex
	rng   *rand.Rand
	zipf  *rand.Zipf
	known map[int][]byte // verified reply per key (replies repeat byte for byte)
	page  []byte         // verified truth page
}

func (d *hotTraffic) drive(ph phase, t *tracedRun) []*client {
	c := newClient(d.w.h, d.res, d.mu)
	for n := 0; !ph.over(n); {
		switch p := d.rng.Float64(); {
		case p < hotRecommendShare:
			n++
			ki := int(d.zipf.Uint64())
			k := d.keys[ki]
			if t.sampling() {
				t.call(c, false, k.req, k.body, func() ([]byte, string, *server.TaskInfo) { return d.recommend(c, ki) })
			} else {
				d.recommend(c, ki)
			}
		case p < hotRecommendShare+hotBatchShare:
			d.batch(c)
		default:
			d.truths(c)
		}
	}
	return []*client{c}
}

// recommend sends one key's request and checks the reply: the first reply
// per key is decoded and verified, later ones must repeat it byte for byte.
func (d *hotTraffic) recommend(c *client, ki int) ([]byte, string, *server.TaskInfo) {
	k := d.keys[ki]
	status, body := c.do(epRecommend, "POST", "/v1/recommend", k.body)
	if status != 200 {
		return nil, "", nil
	}
	if prev, ok := d.known[ki]; ok {
		if !bytes.Equal(prev, body) {
			c.fail("recommend %d->%d: reply %.200s differs from the earlier %.200s", k.req.From, k.req.To, body, prev)
			return nil, "", nil
		}
		c.reused++
		return body, "reuse", nil
	}
	out, err := c.checkRecommend(d.w.g, body, k.req)
	if err != nil {
		c.fail("recommend: %v", err)
		return nil, "", nil
	}
	if out.Stage != "reuse" {
		c.fail("recommend %d->%d resolved at %s, want reuse", k.req.From, k.req.To, out.Stage)
		return nil, "", nil
	}
	c.reused++
	d.known[ki] = append([]byte(nil), body...)
	return body, out.Stage, nil
}

func (d *hotTraffic) batch(c *client) {
	var in server.BatchRecommendRequest
	var reqs []core.Request
	for j := 0; j < 4; j++ {
		k := d.keys[d.zipf.Uint64()]
		reqs = append(reqs, k.req)
		in.Items = append(in.Items, server.RecommendRequest{From: k.req.From, To: k.req.To, DepartMin: float64(k.req.Depart)})
	}
	b, _ := json.Marshal(in)
	if status, body := c.do(epBatch, "POST", "/v1/recommend/batch", b); status == 200 {
		var out server.BatchRecommendResponse
		if err := json.Unmarshal(body, &out); err != nil || len(out.Results) != len(reqs) {
			c.fail("batch: bad reply (%v): %s", err, body)
			return
		}
		for j, r := range out.Results {
			if r.Result == nil || r.Status != 200 {
				c.fail("batch item %d: status %d", j, r.Status)
				continue
			}
			if err := c.checkRoute(d.w.g, r.Result.Route, reqs[r.Index].From, reqs[r.Index].To); err != nil {
				c.fail("batch item %d: %v", j, err)
			}
		}
	}
}

func (d *hotTraffic) truths(c *client) {
	status, body := c.do(epTruths, "GET", "/v1/truths?limit=20", nil)
	if status != 200 || bytes.Equal(d.page, body) {
		return
	}
	var out server.Page[server.TruthInfo]
	if err := json.Unmarshal(body, &out); err != nil || out.Total < 1 || len(out.Items) != min(20, out.Total) {
		c.fail("truths: bad page (%v): %.200s", err, body)
		return
	}
	d.page = append([]byte(nil), body...)
}

func (d *hotTraffic) finish() {}

func (d *hotTraffic) extra(time.Duration) []metric { return nil }

// ---- cold-crowd ----

// coldGen draws requests with fresh (OD, slot) keys uniformly over the city
// and the day, so truth reuse and the route cache never hit.
type coldGen struct {
	rng  *rand.Rand
	n    int
	seen map[[3]int]bool
}

func newColdGen(w *world, seed int64) *coldGen {
	return &coldGen{rng: rand.New(rand.NewSource(seed)), n: w.g.NumNodes(), seen: map[[3]int]bool{}}
}

func (g *coldGen) next() core.Request {
	for {
		from, to, slot := g.rng.Intn(g.n), g.rng.Intn(g.n), g.rng.Intn(24)
		k := [3]int{from, to, slot}
		if from == to || g.seen[k] {
			continue
		}
		g.seen[k] = true
		return core.Request{From: roadnet.NodeID(from), To: roadnet.NodeID(to), Depart: departIn(g.rng, slot)}
	}
}

// coldPrefix is how many leading requests the determinism check compares.
const coldPrefix = 40

var coldCrowd = workload{
	primary:   epRecommend,
	reconcile: true,
	newTraffic: func(w *world, o options, res *result, mu *sync.Mutex) traffic {
		return newColdTraffic(w, o, res, mu)
	},
}

type coldTraffic struct {
	o        options
	w        *world
	gen      *coldGen
	res      *result
	mu       *sync.Mutex
	outcomes []string // stage and route of the leading requests
}

func newColdTraffic(w *world, o options, res *result, mu *sync.Mutex) *coldTraffic {
	return &coldTraffic{o: o, w: w, gen: newColdGen(w, o.seed), res: res, mu: mu}
}

func (d *coldTraffic) drive(ph phase, t *tracedRun) []*client {
	c := newClient(d.w.h, d.res, d.mu)
	for n := 0; !ph.over(n); n++ {
		req := d.gen.next()
		body := recommendBody(req)
		if t.sampling() {
			t.call(c, false, req, body, func() ([]byte, string, *server.TaskInfo) { return d.recommend(c, req, body) })
		} else {
			d.recommend(c, req, body)
		}
	}
	return []*client{c}
}

func (d *coldTraffic) recommend(c *client, req core.Request, body []byte) ([]byte, string, *server.TaskInfo) {
	status, resp := c.do(epRecommend, "POST", "/v1/recommend", body)
	if status != 200 {
		return nil, "", nil
	}
	out, err := c.checkRecommend(d.w.g, resp, req)
	if err != nil {
		c.fail("recommend: %v", err)
		return nil, "", nil
	}
	if out.Stage == "reuse" {
		c.reused++
	}
	if len(d.outcomes) < coldPrefix {
		d.outcomes = append(d.outcomes, fmt.Sprintf("%s %v", out.Stage, out.Route))
	}
	return resp, out.Stage, out.Task
}

// finish runs the determinism check of an untraced run: a second world
// serves the first requests of the same seed, and their stages and routes
// must match this run's exactly.
func (d *coldTraffic) finish() {
	if d.o.trace || len(d.outcomes) == 0 {
		return
	}
	w, err := buildWorld(d.o, false, nil)
	if err != nil {
		d.res.fail("determinism: building a second world: %v", err)
		return
	}
	defer func() { _ = w.close() }()
	ref := newColdTraffic(w, d.o, &result{}, &sync.Mutex{})
	ref.drive(phase{end: time.Now().Add(time.Hour), maxReqs: min(coldPrefix, len(d.outcomes))}, nil)
	for i, o := range ref.outcomes {
		if o != d.outcomes[i] {
			d.res.fail("determinism: request %d resolved as %q on one world and %q on another", i, d.outcomes[i], o)
			return
		}
	}
}

func (d *coldTraffic) extra(time.Duration) []metric { return nil }

// ---- feed-async ----

const (
	ingestBatch  = 10 // trips per POST /v1/trajectories
	answerBudget = 40 // answers a task may take before it is expired
)

var feedAsync = workload{
	primary:    epPublish,
	durable:    true,
	newTraffic: newFeedTraffic,
}

type feedTraffic struct {
	w   *world
	res *result
	mu  *sync.Mutex

	ingestRng *rand.Rand
	total     int // corpus size the next ingest reply must report, minus the batch
	accepted  int // trips accepted in the timed phases

	pubRng *rand.Rand
	seen   map[[3]int]bool
	tasks  int // tasks published
	gate   sync.RWMutex
}

func newFeedTraffic(w *world, o options, res *result, mu *sync.Mutex) traffic {
	return &feedTraffic{
		w: w, res: res, mu: mu, total: w.sys.CorpusSize(),
		ingestRng: rand.New(rand.NewSource(o.seed*31 + 1)),
		pubRng:    rand.New(rand.NewSource(o.seed*31 + 2)),
		seen:      map[[3]int]bool{},
	}
}

func (d *feedTraffic) drive(ph phase, t *tracedRun) []*client {
	ingest, pub := newClient(d.w.h, d.res, d.mu), newClient(d.w.h, d.res, d.mu)
	runClients(func() {
		for n := 0; !ph.over(n); n++ {
			d.ingest(ingest, t != nil)
		}
	}, func() {
		for n := 0; !ph.over(n); n++ {
			d.publish(pub, t)
		}
	})
	return []*client{ingest, pub}
}

// ingest sends one batch of corpus routes with shifted departures.
func (d *feedTraffic) ingest(c *client, gated bool) {
	var in server.IngestRequest
	for i := 0; i < ingestBatch; i++ {
		t := d.w.trips[d.ingestRng.Intn(len(d.w.trips))]
		nodes := make([]int64, len(t.Route.Nodes))
		for j, nd := range t.Route.Nodes {
			nodes[j] = int64(nd)
		}
		shift := float64(d.ingestRng.Intn(7 * 1440))
		in.Trips = append(in.Trips, server.TrajTrip{Driver: int32(t.Driver), DepartMin: float64(t.Depart) + shift, Nodes: nodes})
	}
	b, _ := json.Marshal(in)
	if gated {
		d.gate.RLock()
		defer d.gate.RUnlock()
	}
	status, body := c.do(epIngest, "POST", "/v1/trajectories", b)
	if status != 200 {
		return
	}
	var out server.IngestResponse
	if err := json.Unmarshal(body, &out); err != nil {
		c.fail("ingest: %v", err)
		return
	}
	d.total += ingestBatch
	d.accepted += out.Accepted
	if out.Accepted != ingestBatch || len(out.Rejected) != 0 || out.TotalTrips != d.total {
		c.fail("ingest: accepted %d of %d, %d rejected, corpus %d (want %d)",
			out.Accepted, ingestBatch, len(out.Rejected), out.TotalTrips, d.total)
		d.total = out.TotalTrips
	}
}

// nextKey draws a fresh (OD, slot) key along a corpus route: the endpoints
// are taken a few nodes into the route, so the miners have evidence for it.
func (d *feedTraffic) nextKey() core.Request {
	rng := d.pubRng
	for {
		nodes := d.w.trips[rng.Intn(len(d.w.trips))].Route.Nodes
		cut := max(1, len(nodes)/4)
		from, to := nodes[rng.Intn(cut)], nodes[len(nodes)-1-rng.Intn(cut)]
		slot := rng.Intn(24)
		k := [3]int{int(from), int(to), slot}
		if from == to || d.seen[k] {
			continue
		}
		d.seen[k] = true
		return core.Request{From: from, To: to, Depart: departIn(rng, slot)}
	}
}

// publish sends one async recommend and, when it publishes a task, acts as
// the assigned workers until the task closes.
func (d *feedTraffic) publish(c *client, t *tracedRun) {
	req := d.nextKey()
	body := recommendBody(req)
	var ticket *server.TicketInfo
	send := func() ([]byte, string, *server.TaskInfo) {
		status, resp := c.do(epPublish, "POST", "/v1/recommend/async", body)
		if status != 200 {
			return nil, "", nil
		}
		var out server.AsyncRecommendResponse
		if err := json.Unmarshal(resp, &out); err != nil {
			c.fail("publish: %v", err)
			return nil, "", nil
		}
		if out.Resolved != nil {
			if err := c.checkRoute(d.w.g, out.Resolved.Route, req.From, req.To); err != nil {
				c.fail("publish: %v", err)
			}
			if out.Resolved.Stage == "reuse" {
				c.reused++
			}
			return resp, out.Resolved.Stage, nil
		}
		ticket = out.Ticket
		return resp, "crowd", nil
	}
	row := -1
	if t.sampling() {
		// The corpus must not change between the publication and the
		// replay check, so ingestion waits for both.
		d.gate.Lock()
		n := len(t.rows)
		t.call(c, true, req, body, send)
		if len(t.rows) > n {
			row = n
		}
		d.gate.Unlock()
	} else {
		send()
	}
	if ticket != nil {
		d.tasks++
		q, a := d.answer(c, req, ticket)
		if row >= 0 {
			// Each answer the protocol collects is used: asked equals answers.
			t.rows[row].questions, t.rows[row].answers, t.rows[row].asked = q, a, a
		}
	}
}

// answer drives one published task to its end through the worker protocol:
// poll each assigned worker's open questions and answer them. It returns
// the questions asked and the answers given.
func (d *feedTraffic) answer(c *client, req core.Request, ticket *server.TicketInfo) (questions, answers int) {
	id := ticket.TaskID
	asked := map[int32]bool{}
	for {
		progress := false
		for _, wid := range ticket.AssignedWorkers {
			status, body := c.do(epPoll, "GET", fmt.Sprintf("/v1/workers/%d/tasks", wid), nil)
			if status != 200 {
				return len(asked), answers
			}
			var open []server.WorkerTaskInfo
			if err := json.Unmarshal(body, &open); err != nil {
				c.fail("poll: %v", err)
				return len(asked), answers
			}
			for _, q := range open {
				if q.TaskID != id {
					continue
				}
				asked[q.Landmark] = true
				ans, _ := json.Marshal(server.AnswerRequest{Worker: wid, Yes: d.pubRng.Float64() < 0.7})
				status, body := c.do(epAnswer, "POST", fmt.Sprintf("/v1/tasks/%d/answer", id), ans)
				if status != 200 {
					return len(asked), answers
				}
				answers++
				progress = true
				var out server.AnswerResponse
				if err := json.Unmarshal(body, &out); err != nil {
					c.fail("answer: %v", err)
					return len(asked), answers
				}
				if out.State != "open" {
					d.checkClosed(c, req, out)
					return len(asked), answers
				}
				if answers >= answerBudget {
					d.expire(c, req, id)
					return len(asked), answers
				}
			}
		}
		if !progress {
			c.fail("task %d is open but none of its workers has a question", id)
			d.expire(c, req, id)
			return len(asked), answers
		}
	}
}

func (d *feedTraffic) expire(c *client, req core.Request, id int64) {
	status, body := c.do(epExpire, "POST", fmt.Sprintf("/v1/tasks/%d/expire", id), nil)
	if status != 200 {
		return
	}
	var out server.AnswerResponse
	if err := json.Unmarshal(body, &out); err != nil {
		c.fail("expire: %v", err)
		return
	}
	d.checkClosed(c, req, out)
}

func (d *feedTraffic) checkClosed(c *client, req core.Request, out server.AnswerResponse) {
	if out.Resolved == nil {
		c.fail("task for %d->%d closed as %s without a route", req.From, req.To, out.State)
		return
	}
	if err := c.checkRoute(d.w.g, out.Resolved.Route, req.From, req.To); err != nil {
		c.fail("closed task: %v", err)
	}
}

func (d *feedTraffic) extra(elapsed time.Duration) []metric {
	return []metric{
		{"ingest_trips_per_s", float64(d.accepted) / elapsed.Seconds(), "1/s", d.accepted},
		{"tasks_published", float64(d.tasks), "count", 0},
	}
}

// finish checks that no task and no claimed worker leaked.
func (d *feedTraffic) finish() {
	if n := d.w.sys.OpenTasks(); n != 0 {
		d.res.fail("%d tasks still open after the run", n)
	}
	for _, wk := range d.w.sys.Pool().Workers {
		if wk.Outstanding != 0 {
			d.res.fail("worker %d still has %d outstanding tasks", wk.ID, wk.Outstanding)
		}
	}
}
