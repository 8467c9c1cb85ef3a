package server

import (
	"context"
	"net"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// Overload protection (DESIGN.md §14): a bounded admission queue that sheds
// excess load with 429s instead of letting goroutines and latency pile up,
// a per-client token-bucket rate limiter, and a per-request deadline budget
// threaded through the existing context plumbing. All three are opt-in via
// WithOverload — embedded test servers and trusted single-tenant
// deployments keep today's unbounded behaviour by default — and health
// endpoints are always exempt, so operators can observe an overloaded
// server.

// OverloadConfig configures the admission layer. Each mechanism disables
// independently when its knob is zero.
type OverloadConfig struct {
	// MaxConcurrent caps requests in service at once. <= 0 disables
	// admission control (and the queue).
	MaxConcurrent int
	// MaxQueue bounds how many admitted-but-waiting requests may queue for
	// a service slot; arrivals beyond it are shed with 429 + Retry-After.
	// Only meaningful with MaxConcurrent > 0. <= 0 means no waiting room:
	// every request beyond MaxConcurrent sheds immediately.
	MaxQueue int
	// RatePerSec is the per-client token refill rate, keyed by X-API-Key
	// (or the remote address when absent). <= 0 disables rate limiting.
	RatePerSec float64
	// Burst is the token-bucket capacity. <= 0 defaults to 2×RatePerSec
	// (and at least 1).
	Burst float64
	// RequestTimeout is the per-request deadline budget: each admitted
	// request's context is bounded by it, and the serving core aborts its
	// pipeline when it expires (the client sees 504 deadline_exceeded).
	// <= 0 disables.
	RequestTimeout time.Duration
	// RetryAfter is the hint sent with shed-load 429s and degraded-mode
	// 503s. <= 0 defaults to 1s.
	RetryAfter time.Duration
}

// WithOverload enables overload protection with the given config.
func WithOverload(cfg OverloadConfig) Option {
	return func(s *Server) { s.overload = newOverloadGuard(cfg) }
}

// OverloadInfo reports the admission layer's counters on GET /v1/health.
type OverloadInfo struct {
	Enabled bool `json:"enabled"`
	// Shed counts requests rejected by the bounded admission queue.
	Shed uint64 `json:"shed"`
	// RateLimited counts requests rejected by the per-client token bucket.
	RateLimited uint64 `json:"rate_limited"`
	// Coalesced counts requests whose candidate generation piggybacked on
	// another in-flight request for the same OD+slot (core singleflight).
	Coalesced uint64 `json:"coalesced"`
	// InFlight and Queued are instantaneous gauges.
	InFlight int `json:"in_flight"`
	Queued   int `json:"queued"`
	// The configured bounds, for dashboard context.
	MaxConcurrent     int     `json:"max_concurrent"`
	MaxQueue          int     `json:"max_queue"`
	RatePerSec        float64 `json:"rate_per_sec"`
	RequestTimeoutSec float64 `json:"request_timeout_sec"`
}

// overloadGuard is the middleware state behind WithOverload.
type overloadGuard struct {
	cfg  OverloadConfig
	sem  chan struct{} // service slots; nil when admission control is off
	shed atomic.Uint64
	// queued counts requests waiting for a slot; admission sheds when it
	// would exceed MaxQueue.
	queued  atomic.Int64
	limited atomic.Uint64

	lmu sync.Mutex
	//cplint:guardedby lmu
	buckets map[string]*bucket
}

// bucket is one client's token bucket. Guarded by overloadGuard.lmu.
type bucket struct {
	tokens float64
	last   time.Time
}

func newOverloadGuard(cfg OverloadConfig) *overloadGuard {
	if cfg.Burst <= 0 {
		cfg.Burst = max(2*cfg.RatePerSec, 1)
	}
	if cfg.RetryAfter <= 0 {
		cfg.RetryAfter = time.Second
	}
	g := &overloadGuard{cfg: cfg, buckets: make(map[string]*bucket)}
	if cfg.MaxConcurrent > 0 {
		g.sem = make(chan struct{}, cfg.MaxConcurrent)
	}
	return g
}

// maxBuckets bounds the rate-limiter map; beyond it, buckets idle long
// enough to have fully refilled are evicted (dropping one forgets at most a
// full burst of credit, never debt).
const maxBuckets = 4096

// allow runs one request through the client's token bucket. When the bucket
// is dry it reports the wait until the next token as a Retry-After hint.
func (g *overloadGuard) allow(key string, now time.Time) (ok bool, retryAfter time.Duration) {
	g.lmu.Lock()
	defer g.lmu.Unlock()
	b := g.buckets[key]
	if b == nil {
		if len(g.buckets) >= maxBuckets {
			g.sweepLocked(now)
		}
		b = &bucket{tokens: g.cfg.Burst, last: now}
		g.buckets[key] = b
	}
	elapsed := now.Sub(b.last).Seconds()
	if elapsed > 0 {
		b.tokens = min(g.cfg.Burst, b.tokens+elapsed*g.cfg.RatePerSec)
		b.last = now
	}
	if b.tokens >= 1 {
		b.tokens--
		return true, 0
	}
	wait := time.Duration((1 - b.tokens) / g.cfg.RatePerSec * float64(time.Second))
	return false, wait
}

// sweepLocked drops buckets idle long enough to be fully refilled.
func (g *overloadGuard) sweepLocked(now time.Time) {
	full := time.Duration(g.cfg.Burst / g.cfg.RatePerSec * float64(time.Second))
	//cplint:ordered-irrelevant -- eviction of independent per-client buckets; no observable order
	for k, b := range g.buckets {
		if now.Sub(b.last) >= full {
			delete(g.buckets, k)
		}
	}
}

// clientKey identifies the caller for rate limiting: the API key when
// presented, else the remote host (ignoring the ephemeral port, so one
// client's connections share a bucket).
func clientKey(r *http.Request) string {
	if k := r.Header.Get("X-API-Key"); k != "" {
		return "key:" + k
	}
	host, _, err := net.SplitHostPort(r.RemoteAddr)
	if err != nil {
		host = r.RemoteAddr
	}
	return "addr:" + host
}

// exemptFromOverload lists the paths that must stay reachable while the
// server is saturated: health, so operators can observe the overload.
func exemptFromOverload(path string) bool {
	return path == "/v1/health"
}

// setRetryAfter writes the Retry-After header, rounding up to whole seconds
// (the header's granularity; 0 would mean "retry immediately").
func setRetryAfter(w http.ResponseWriter, d time.Duration) {
	secs := int64((d + time.Second - 1) / time.Second)
	if secs < 1 {
		secs = 1
	}
	w.Header().Set("Retry-After", strconv.FormatInt(secs, 10))
}

// withOverload is the admission middleware: rate limit, then bounded queue,
// then deadline budget. It runs before mux dispatch, so a shed request
// costs no routing or handler work; sheds are counted in OverloadInfo
// rather than the per-endpoint metrics.
func (s *Server) withOverload(next http.Handler) http.Handler {
	g := s.overload
	if g == nil {
		return next
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if exemptFromOverload(r.URL.Path) {
			next.ServeHTTP(w, r)
			return
		}
		if g.cfg.RatePerSec > 0 {
			if ok, wait := g.allow(clientKey(r), time.Now()); !ok {
				g.limited.Add(1)
				setRetryAfter(w, wait)
				writeErr(w, r, http.StatusTooManyRequests, CodeRateLimited,
					"client rate limit exceeded (%.3g req/s)", g.cfg.RatePerSec)
				return
			}
		}
		if g.sem != nil {
			select {
			case g.sem <- struct{}{}:
			default:
				// No free slot: wait in the bounded queue or shed.
				if q := g.queued.Add(1); int(q) > g.cfg.MaxQueue {
					g.queued.Add(-1)
					g.shed.Add(1)
					setRetryAfter(w, g.cfg.RetryAfter)
					writeErr(w, r, http.StatusTooManyRequests, CodeOverloaded,
						"server at capacity (%d in service, %d queued); load shed", g.cfg.MaxConcurrent, g.cfg.MaxQueue)
					return
				}
				select {
				case g.sem <- struct{}{}:
					g.queued.Add(-1)
				case <-r.Context().Done():
					g.queued.Add(-1)
					writeErr(w, r, statusClientClosedRequest, CodeCancelled,
						"client went away while queued for admission")
					return
				}
			}
			defer func() { <-g.sem }()
		}
		if g.cfg.RequestTimeout > 0 {
			ctx, cancel := context.WithTimeout(r.Context(), g.cfg.RequestTimeout)
			defer cancel()
			r = r.WithContext(ctx)
		}
		next.ServeHTTP(w, r)
	})
}

// overloadInfo snapshots the admission counters for GET /v1/health.
func (s *Server) overloadInfo() OverloadInfo {
	info := OverloadInfo{Coalesced: s.sys.CoalescedRequests()}
	g := s.overload
	if g == nil {
		return info
	}
	info.Enabled = true
	info.Shed = g.shed.Load()
	info.RateLimited = g.limited.Load()
	info.Queued = int(g.queued.Load())
	if g.sem != nil {
		info.InFlight = len(g.sem)
	}
	info.MaxConcurrent = g.cfg.MaxConcurrent
	info.MaxQueue = g.cfg.MaxQueue
	info.RatePerSec = g.cfg.RatePerSec
	info.RequestTimeoutSec = g.cfg.RequestTimeout.Seconds()
	return info
}

// rejectIfDegraded guards a mutating endpoint: while the storage circuit
// breaker is open the system is read-only — accepting a mutation whose
// commit record would be short-circuited could silently lose it across a
// restart. Recommends (and batch) stay served: their truth write-backs are
// best-effort observations, and their append attempts are the probe traffic
// that heals the breaker.
func (s *Server) rejectIfDegraded(w http.ResponseWriter, r *http.Request) bool {
	if !s.sys.Degraded() {
		return false
	}
	retry := time.Second
	if s.overload != nil {
		retry = s.overload.cfg.RetryAfter
	}
	setRetryAfter(w, retry)
	writeErr(w, r, http.StatusServiceUnavailable, CodeDegraded,
		"storage backend degraded (circuit breaker open): mutating endpoints are read-only until it heals")
	return true
}
