package server

import (
	"sync"
	"time"
)

// EndpointMetrics is the per-endpoint slice of GET /v1/health: request
// counts, error counts by class, and latency aggregates since process start.
type EndpointMetrics struct {
	Count     uint64  `json:"count"`
	Errors4xx uint64  `json:"errors_4xx"`
	Errors5xx uint64  `json:"errors_5xx"`
	AvgMs     float64 `json:"avg_ms"`
	MaxMs     float64 `json:"max_ms"`
}

type endpointCounters struct {
	count, e4xx, e5xx uint64
	totalNs, maxNs    int64
}

// metricsRegistry aggregates per-route-pattern latency and status counters.
// One mutex suffices: observations are a few ns of bookkeeping, far off the
// request hot path compared to the pipeline work they measure.
type metricsRegistry struct {
	mu      sync.Mutex
	started time.Time
	//cplint:guardedby mu
	byPattern map[string]*endpointCounters
}

func newMetricsRegistry() *metricsRegistry {
	return &metricsRegistry{started: time.Now(), byPattern: make(map[string]*endpointCounters)}
}

func (m *metricsRegistry) observe(pattern string, status int, d time.Duration) {
	m.mu.Lock()
	defer m.mu.Unlock()
	c := m.byPattern[pattern]
	if c == nil {
		c = &endpointCounters{}
		m.byPattern[pattern] = c
	}
	c.count++
	switch {
	case status >= 500:
		c.e5xx++
	case status >= 400:
		c.e4xx++
	}
	ns := d.Nanoseconds()
	c.totalNs += ns
	if ns > c.maxNs {
		c.maxNs = ns
	}
}

// snapshot returns the per-endpoint aggregates and the uptime in seconds.
func (m *metricsRegistry) snapshot() (map[string]EndpointMetrics, float64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make(map[string]EndpointMetrics, len(m.byPattern))
	for pat, c := range m.byPattern {
		em := EndpointMetrics{
			Count: c.count, Errors4xx: c.e4xx, Errors5xx: c.e5xx,
			MaxMs: float64(c.maxNs) / 1e6,
		}
		if c.count > 0 {
			em.AvgMs = float64(c.totalNs) / float64(c.count) / 1e6
		}
		out[pat] = em
	}
	return out, time.Since(m.started).Seconds()
}
