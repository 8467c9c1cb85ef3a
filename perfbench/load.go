package main

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"sort"
	"sync"
	"time"

	"crowdplanner/internal/geo"
	"crowdplanner/internal/popular"
	"crowdplanner/internal/roadnet"
)

// endpoint names one measured request type.
type endpoint int

const (
	epRecommend endpoint = iota
	epBatch
	epTruths
	epPublish
	epPoll
	epAnswer
	epExpire
	epIngest
	numEndpoints
)

var endpointNames = [numEndpoints]string{
	"recommend", "batch", "truths", "publish", "poll", "answer", "expire", "ingest",
}

// respWriter is a minimal reusable http.ResponseWriter: the benchmark calls
// the handler in-process, so no connection or recorder sits between them.
type respWriter struct {
	hdr  http.Header
	code int
	body bytes.Buffer
}

func (w *respWriter) Header() http.Header { return w.hdr }

func (w *respWriter) WriteHeader(code int) {
	if w.code == 0 {
		w.code = code
	}
}

func (w *respWriter) Write(p []byte) (int, error) {
	if w.code == 0 {
		w.code = http.StatusOK
	}
	return w.body.Write(p)
}

// client is one closed-loop client: it sends its next request only after the
// previous one returned. Latencies are the handler's ServeHTTP time.
type client struct {
	h   http.Handler
	ctx context.Context
	rw  respWriter
	res *result // checks are recorded here (guarded by mu)
	mu  *sync.Mutex

	lat       [numEndpoints][]time.Duration
	attempted int
	reused    int           // primary requests resolved by truth reuse
	offset    int           // routes between nodes near the requested ones
	last      time.Duration // duration of the latest call
}

func newClient(h http.Handler, res *result, mu *sync.Mutex) *client {
	return &client{h: h, ctx: context.Background(), res: res, mu: mu, rw: respWriter{hdr: http.Header{}}}
}

// do sends one request and returns the status and body. The body is only
// valid until the next call. A non-2xx status counts as a failure.
func (c *client) do(ep endpoint, method, path string, body []byte) (int, []byte) {
	req, err := http.NewRequestWithContext(c.ctx, method, path, bytes.NewReader(body))
	if err != nil {
		c.fail("%s %s: building request: %v", method, path, err)
		return 0, nil
	}
	clear(c.rw.hdr)
	c.rw.code = 0
	c.rw.body.Reset()
	t0 := time.Now()
	c.h.ServeHTTP(&c.rw, req)
	c.last = time.Since(t0)
	c.lat[ep] = append(c.lat[ep], c.last)
	c.attempted++
	if c.rw.code/100 != 2 {
		c.fail("%s %s: status %d: %s", method, path, c.rw.code, bytes.TrimSpace(c.rw.body.Bytes()))
	}
	return c.rw.code, c.rw.body.Bytes()
}

func (c *client) fail(format string, args ...any) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.res.fail(format, args...)
}

// latencies merges the clients' samples per endpoint.
func latencies(clients []*client) (all [numEndpoints][]time.Duration, attempted int) {
	for _, c := range clients {
		for ep := range all {
			all[ep] = append(all[ep], c.lat[ep]...)
		}
		attempted += c.attempted
	}
	for ep := range all {
		sort.Slice(all[ep], func(i, j int) bool { return all[ep][i] < all[ep][j] })
	}
	return all, attempted
}

// quantile is the nearest-rank quantile of sorted samples (0 when empty).
func quantile(sorted []time.Duration, q float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	i := int(q*float64(len(sorted))+0.5) - 1
	return sorted[min(max(i, 0), len(sorted)-1)]
}

// latencyMetrics reports an endpoint's median and 99th percentile.
func latencyMetrics(name string, sorted []time.Duration) []metric {
	n := len(sorted)
	return []metric{
		{name + "_p50_ms", ms(quantile(sorted, 0.50)), "ms", n},
		{name + "_p99_ms", ms(quantile(sorted, 0.99)), "ms", n},
	}
}

// endpointSlack is how far a returned route's endpoints may lie from the
// requested ones: the LDR miner proposes trips whose endpoints are within its
// match radius of the request's, and such a candidate can win.
var endpointSlack = popular.NewLDR().MatchRadius

// checkRoute verifies that nodes is a connected path from `from` to `to`,
// or from and to nodes within endpointSlack of them; the latter is counted.
func (c *client) checkRoute(g *roadnet.Graph, nodes []roadnet.NodeID, from, to roadnet.NodeID) error {
	if len(nodes) < 2 {
		return fmt.Errorf("route %d->%d has %d nodes", from, to, len(nodes))
	}
	src, dst := nodes[0], nodes[len(nodes)-1]
	if src != from || dst != to {
		if geo.Dist(g.Node(src).Pt, g.Node(from).Pt) > endpointSlack || geo.Dist(g.Node(dst).Pt, g.Node(to).Pt) > endpointSlack {
			return fmt.Errorf("route runs %d->%d, want %d->%d", src, dst, from, to)
		}
		c.offset++
	}
	if !(roadnet.Route{Nodes: nodes}).Valid(g) {
		return fmt.Errorf("route %d->%d is not connected", from, to)
	}
	return nil
}

// runClients runs each body on its own goroutine until it returns and waits
// for all of them.
func runClients(bodies ...func()) {
	var wg sync.WaitGroup
	for _, b := range bodies {
		wg.Add(1)
		go func() {
			defer wg.Done()
			b()
		}()
	}
	wg.Wait()
}

// phase bounds a timed phase by wall time and, optionally, a request cap.
type phase struct {
	end     time.Time
	maxReqs int
}

func newPhase(o options) phase {
	return phase{end: time.Now().Add(time.Duration(o.seconds * float64(time.Second))), maxReqs: o.maxReqs}
}

// over reports whether a client that has sent n primary requests should stop.
func (p phase) over(n int) bool {
	if p.maxReqs > 0 && n >= p.maxReqs {
		return true
	}
	return time.Now().After(p.end)
}
