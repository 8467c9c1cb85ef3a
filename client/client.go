// Package client is the typed Go SDK for the CrowdPlanner /v1 HTTP API.
//
// It covers the whole surface: synchronous recommendation, the batch
// endpoint, and the asynchronous crowd-task lifecycle (publish a request,
// poll the ticket, submit worker answers, expire on deadline), plus the
// inventory endpoints (health, truths, landmarks, top workers, sources).
//
// Transient failures are retried with exponential backoff: GETs on 429,
// any 5xx, and transport errors; mutating POSTs only on 429/503, where the
// server rejected the request before doing work (a 500 or a dropped
// connection may have committed server-side, and re-POSTing an async
// recommend would publish a duplicate crowd task). Every call takes a
// context and stops — retries included — as soon as it is cancelled.
// Server-reported errors surface as *APIError carrying the typed /v1 error
// code.
//
//	c := client.New("http://localhost:8080")
//	rec, err := c.Recommend(ctx, client.RecommendRequest{From: 3, To: 317, DepartMin: 510})
package client

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand/v2"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"time"
)

// Client talks to a CrowdPlanner server's /v1 API.
type Client struct {
	baseURL    string
	hc         *http.Client
	maxRetries int
	backoff    time.Duration
}

// Option configures a Client.
type Option func(*Client)

// WithHTTPClient substitutes the underlying *http.Client (timeouts,
// transports, instrumentation).
func WithHTTPClient(hc *http.Client) Option { return func(c *Client) { c.hc = hc } }

// WithRetry sets how many times a transiently-failed call is retried (see
// the package doc for which method/status combinations qualify), and the
// base backoff. The wait before attempt n doubles the base per attempt and
// is then jittered to half-to-full of that value ("equal jitter"), so a
// fleet of clients rejected together does not come back as one synchronized
// retry storm. When the server supplied a Retry-After on a 429/503, that
// takes precedence over the computed backoff (plus a small jitter).
// WithRetry(0, 0) disables retries.
func WithRetry(maxRetries int, backoff time.Duration) Option {
	return func(c *Client) {
		c.maxRetries = maxRetries
		c.backoff = backoff
	}
}

// New returns a client for the server at baseURL (scheme://host[:port],
// without the /v1 prefix). Defaults: the shared http.DefaultClient, 3
// retries, 100ms initial backoff.
func New(baseURL string, opts ...Option) *Client {
	c := &Client{
		baseURL:    trimTrailingSlash(baseURL),
		hc:         http.DefaultClient,
		maxRetries: 3,
		backoff:    100 * time.Millisecond,
	}
	for _, o := range opts {
		o(c)
	}
	return c
}

func trimTrailingSlash(s string) string {
	for len(s) > 0 && s[len(s)-1] == '/' {
		s = s[:len(s)-1]
	}
	return s
}

// APIError is a non-2xx reply from the server, carrying the typed /v1 error
// code and the request ID for log correlation.
type APIError struct {
	StatusCode int    // HTTP status
	Code       string // /v1 error code, e.g. "bad_request", "task_closed"
	Message    string
	RequestID  string
	// RetryAfter is the server's Retry-After hint (429/503 shed-load and
	// degraded-mode responses), zero when absent. The retry loop honors it;
	// callers handling the error themselves should too.
	RetryAfter time.Duration
}

// Error implements error.
func (e *APIError) Error() string {
	if e.Code != "" {
		return fmt.Sprintf("crowdplanner: %s (%s, HTTP %d)", e.Message, e.Code, e.StatusCode)
	}
	return fmt.Sprintf("crowdplanner: %s (HTTP %d)", e.Message, e.StatusCode)
}

// IsCode reports whether err is an *APIError with the given /v1 error code.
func IsCode(err error, code string) bool {
	var ae *APIError
	return errors.As(err, &ae) && ae.Code == code
}

// retryable reports whether a status warrants another attempt. GETs retry
// on 429 and any 5xx (and on transport errors). Mutating POSTs retry only
// when the server clearly rejected the request before doing work — 429 and
// 503 — because a 500/502/504 (or a dropped connection mid-response) may
// have landed server-side: blindly re-POSTing recommend/async would publish
// a duplicate crowd task whose claimed workers are never released.
func retryable(method string, status int) bool {
	switch status {
	case http.StatusTooManyRequests, http.StatusServiceUnavailable:
		return true
	}
	return method == http.MethodGet && status >= 500
}

// do performs one API call with retries: marshal body once, POST/GET with
// the context attached, decode into out on 2xx, *APIError otherwise.
func (c *Client) do(ctx context.Context, method, path string, in, out any) error {
	var payload []byte
	if in != nil {
		var err error
		if payload, err = json.Marshal(in); err != nil {
			return fmt.Errorf("crowdplanner: encoding request: %w", err)
		}
	}
	var retryAfter time.Duration // server's Retry-After from the last reply
	for attempt := 0; ; attempt++ {
		if attempt > 0 {
			if err := sleepCtx(ctx, c.retryDelay(attempt, retryAfter)); err != nil {
				return err
			}
		}
		retryAfter = 0
		var body io.Reader
		if payload != nil {
			body = bytes.NewReader(payload)
		}
		req, err := http.NewRequestWithContext(ctx, method, c.baseURL+path, body)
		if err != nil {
			return fmt.Errorf("crowdplanner: building request: %w", err)
		}
		if payload != nil {
			req.Header.Set("Content-Type", "application/json")
		}
		resp, err := c.hc.Do(req)
		if err != nil {
			if ctx.Err() != nil {
				return ctx.Err()
			}
			// A transport error on a POST may have landed server-side; only
			// idempotent requests are safe to resend blindly.
			if method == http.MethodGet && attempt < c.maxRetries {
				continue
			}
			return fmt.Errorf("crowdplanner: %s %s: %w", method, path, err)
		}
		done, err := c.handleResponse(method, resp, out)
		if done || attempt >= c.maxRetries {
			return err
		}
		var ae *APIError
		if errors.As(err, &ae) {
			retryAfter = ae.RetryAfter
		}
	}
}

// retryDelay computes the wait before retry attempt n (1-based). A server
// Retry-After wins outright, plus up to 10% of the base backoff as jitter
// so a fleet told "retry in 1s" fans back in over ~100ms instead of as one
// spike. Otherwise: equal jitter over the doubled base — a uniform draw
// from [d/2, d) where d = backoff<<(n-1) — which preserves the exponential
// envelope while decorrelating concurrent clients.
func (c *Client) retryDelay(attempt int, retryAfter time.Duration) time.Duration {
	if retryAfter > 0 {
		return retryAfter + jitter(c.backoff/10)
	}
	d := c.backoff << (attempt - 1)
	if d <= 0 {
		return 0
	}
	return d/2 + jitter(d/2)
}

// jitter draws uniformly from [0, d).
func jitter(d time.Duration) time.Duration {
	if d <= 0 {
		return 0
	}
	return time.Duration(rand.Int64N(int64(d)))
}

// handleResponse consumes resp. done is false when the caller should retry.
func (c *Client) handleResponse(method string, resp *http.Response, out any) (done bool, err error) {
	defer resp.Body.Close()
	if resp.StatusCode >= 200 && resp.StatusCode < 300 {
		if out == nil {
			_, _ = io.Copy(io.Discard, resp.Body)
			return true, nil
		}
		if derr := json.NewDecoder(resp.Body).Decode(out); derr != nil {
			return true, fmt.Errorf("crowdplanner: decoding response: %w", derr)
		}
		return true, nil
	}
	raw, _ := io.ReadAll(io.LimitReader(resp.Body, 64<<10))
	ae := &APIError{
		StatusCode: resp.StatusCode,
		RequestID:  resp.Header.Get("X-Request-ID"),
		RetryAfter: parseRetryAfter(resp.Header.Get("Retry-After")),
	}
	var envelope struct {
		Error struct {
			Code      string `json:"code"`
			Message   string `json:"message"`
			RequestID string `json:"request_id"`
		} `json:"error"`
	}
	if jerr := json.Unmarshal(raw, &envelope); jerr == nil && envelope.Error.Code != "" {
		ae.Code = envelope.Error.Code
		ae.Message = envelope.Error.Message
		if envelope.Error.RequestID != "" {
			ae.RequestID = envelope.Error.RequestID
		}
	} else {
		ae.Message = string(bytes.TrimSpace(raw))
	}
	return !retryable(method, resp.StatusCode), ae
}

// parseRetryAfter decodes a Retry-After header: delta-seconds or an
// HTTP-date (RFC 9110 §10.2.3). Unparseable or past values yield zero.
func parseRetryAfter(v string) time.Duration {
	if v == "" {
		return 0
	}
	if secs, err := strconv.Atoi(v); err == nil {
		if secs < 0 {
			return 0
		}
		return time.Duration(secs) * time.Second
	}
	if t, err := http.ParseTime(v); err == nil {
		if d := time.Until(t); d > 0 {
			return d
		}
	}
	return 0
}

// sleepCtx sleeps for d or until ctx is done.
func sleepCtx(ctx context.Context, d time.Duration) error {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}

// ---- Recommendation ----

// RecommendRequest is one route request.
type RecommendRequest struct {
	From        int64   `json:"from"`
	To          int64   `json:"to"`
	DepartMin   float64 `json:"depart_min"` // minutes since Monday 00:00
	DeadlineMin float64 `json:"deadline_min,omitempty"`
}

// Recommendation is a resolved route with its provenance.
type Recommendation struct {
	Route      []int64     `json:"route"`
	Stage      string      `json:"stage"` // reuse|agreement|confidence|crowd|fallback
	Confidence float64     `json:"confidence"`
	LengthM    float64     `json:"length_m"`
	TravelMin  float64     `json:"travel_min"`
	Candidates []Candidate `json:"candidates,omitempty"`
	Task       *TaskInfo   `json:"task,omitempty"`
}

// Candidate summarizes one provider's route proposal.
type Candidate struct {
	Source  string  `json:"source"`
	Nodes   int     `json:"nodes"`
	LengthM float64 `json:"length_m"`
	Prior   float64 `json:"prior"`
}

// TaskInfo summarizes the crowd task a synchronous recommendation ran.
type TaskInfo struct {
	ID                int64   `json:"id"`
	QuestionLandmarks []int32 `json:"question_landmarks"`
	ExpectedQuestions float64 `json:"expected_questions"`
	QuestionsUsed     int     `json:"questions_used"`
	AnswersUsed       int     `json:"answers_used"`
	WorkersAssigned   int     `json:"workers_assigned"`
}

// Recommend runs one request through the full pipeline, simulating the
// crowd synchronously if it is needed.
func (c *Client) Recommend(ctx context.Context, req RecommendRequest) (*Recommendation, error) {
	var out Recommendation
	if err := c.do(ctx, http.MethodPost, "/v1/recommend", req, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// BatchResult is one item's outcome in a batch call.
type BatchResult struct {
	Index  int             `json:"index"`
	Status int             `json:"status"`
	Result *Recommendation `json:"result,omitempty"`
	Error  *BatchError     `json:"error,omitempty"`
}

// BatchError is a per-item failure inside an otherwise-successful batch.
type BatchError struct {
	Code    string `json:"code"`
	Message string `json:"message"`
}

// BatchResponse is the full batch reply.
type BatchResponse struct {
	Results   []BatchResult `json:"results"`
	Succeeded int           `json:"succeeded"`
	Failed    int           `json:"failed"`
}

// RecommendBatch fans up to the server's limit (256) of requests
// through the concurrent core in one HTTP round trip. Per-item failures are
// reported in Results without failing the call.
func (c *Client) RecommendBatch(ctx context.Context, items []RecommendRequest) (*BatchResponse, error) {
	var out BatchResponse
	in := struct {
		Items []RecommendRequest `json:"items"`
	}{items}
	if err := c.do(ctx, http.MethodPost, "/v1/recommend/batch", in, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// ---- Trajectory ingestion ----

// TrajTrip is one observed trip to ingest: the map-matched route node
// sequence, its departure time, and the driver who drove it.
type TrajTrip struct {
	Driver    int32   `json:"driver"`
	DepartMin float64 `json:"depart_min"` // minutes since Monday 00:00
	Nodes     []int64 `json:"nodes"`
}

// IngestRejection reports why one trip of a batch was refused.
type IngestRejection struct {
	Index  int    `json:"index"`
	Reason string `json:"reason"`
}

// IngestReport summarizes one ingestion batch.
type IngestReport struct {
	Accepted   int               `json:"accepted"`
	Rejected   []IngestRejection `json:"rejected"`
	TotalTrips int               `json:"total_trips"`
}

// IngestTrips streams observed trips into the server's live mining corpus
// via POST /v1/trajectories. Accepted trips are visible to the popular-route
// miners immediately and survive a restart on a durable backend. Per-trip
// validation failures are reported in the result without failing the call.
// Like the other mutating POSTs it retries only on 429/503 — re-sending a
// batch the server may already have applied would ingest the trips twice.
func (c *Client) IngestTrips(ctx context.Context, trips []TrajTrip) (*IngestReport, error) {
	in := struct {
		Trips []TrajTrip `json:"trips"`
	}{trips}
	var out IngestReport
	if err := c.do(ctx, http.MethodPost, "/v1/trajectories", in, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// ---- Asynchronous task lifecycle ----

// Ticket is a published crowd task awaiting worker answers.
type Ticket struct {
	TaskID          int64   `json:"task_id"`
	State           string  `json:"state"` // open|resolved|expired
	CurrentQuestion *int32  `json:"current_question,omitempty"`
	AssignedWorkers []int32 `json:"assigned_workers"`
}

// AsyncResult is the reply to an async recommend: exactly one of Resolved
// (the TR module answered immediately) and Ticket (a crowd task was
// published) is set.
type AsyncResult struct {
	Resolved *Recommendation `json:"resolved,omitempty"`
	Ticket   *Ticket         `json:"ticket,omitempty"`
}

// RecommendAsync resolves via the traditional module or publishes a crowd
// task whose ticket must be driven with SubmitAnswer (or WaitForResult).
func (c *Client) RecommendAsync(ctx context.Context, req RecommendRequest) (*AsyncResult, error) {
	var out AsyncResult
	if err := c.do(ctx, http.MethodPost, "/v1/recommend/async", req, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// TaskState is a snapshot of a published task.
type TaskState struct {
	Ticket *Ticket         `json:"ticket"`
	Result *Recommendation `json:"result,omitempty"`
}

// Task fetches the state (and, once closed, the result) of a task.
func (c *Client) Task(ctx context.Context, taskID int64) (*TaskState, error) {
	var out TaskState
	if err := c.do(ctx, http.MethodGet, "/v1/tasks/"+strconv.FormatInt(taskID, 10), nil, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// AnswerResult reports a task's state after an answer or expiry; Resolved is
// set once the task closes.
type AnswerResult struct {
	State    string          `json:"state"`
	Resolved *Recommendation `json:"resolved,omitempty"`
}

// SubmitAnswer records one worker's yes/no answer to the task's current
// question. Typed failures: not_assigned (403), already_answered or
// task_closed (409).
func (c *Client) SubmitAnswer(ctx context.Context, taskID int64, workerID int32, yes bool) (*AnswerResult, error) {
	in := struct {
		Worker int32 `json:"worker"`
		Yes    bool  `json:"yes"`
	}{workerID, yes}
	var out AnswerResult
	if err := c.do(ctx, http.MethodPost, "/v1/tasks/"+strconv.FormatInt(taskID, 10)+"/answer", in, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// ExpireTask force-closes an open task (deadline passed); the provider
// consensus route is returned with low confidence.
func (c *Client) ExpireTask(ctx context.Context, taskID int64) (*AnswerResult, error) {
	var out AnswerResult
	if err := c.do(ctx, http.MethodPost, "/v1/tasks/"+strconv.FormatInt(taskID, 10)+"/expire", nil, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// WorkerTask is one open question directed at a worker.
type WorkerTask struct {
	TaskID   int64 `json:"task_id"`
	Landmark int32 `json:"landmark"`
}

// WorkerTasks lists the open questions assigned to a worker — what the
// paper's mobile client polls on behalf of its user.
func (c *Client) WorkerTasks(ctx context.Context, workerID int32) ([]WorkerTask, error) {
	var out []WorkerTask
	path := "/v1/workers/" + strconv.FormatInt(int64(workerID), 10) + "/tasks"
	if err := c.do(ctx, http.MethodGet, path, nil, &out); err != nil {
		return nil, err
	}
	return out, nil
}

// WaitForResult polls a task until it closes (resolved or expired) and
// returns the final recommendation. pollEvery <= 0 defaults to 100ms. The
// context bounds the wait; its error is returned on cancellation.
func (c *Client) WaitForResult(ctx context.Context, taskID int64, pollEvery time.Duration) (*Recommendation, error) {
	if pollEvery <= 0 {
		pollEvery = 100 * time.Millisecond
	}
	for {
		st, err := c.Task(ctx, taskID)
		if err != nil {
			return nil, err
		}
		if st.Result != nil {
			return st.Result, nil
		}
		if err := sleepCtx(ctx, pollEvery); err != nil {
			return nil, err
		}
	}
}

// ---- Inventory ----

// Health is the GET /v1/health reply.
type Health struct {
	Status     string                     `json:"status"`
	Nodes      int                        `json:"nodes"`
	Edges      int                        `json:"edges"`
	Landmarks  int                        `json:"landmarks"`
	Workers    int                        `json:"workers"`
	Truths     int                        `json:"truths"`
	Trips      int                        `json:"trips"`
	OpenTasks  int                        `json:"open_tasks"`
	UptimeSec  float64                    `json:"uptime_sec"`
	RouteCache RouteCacheStats            `json:"route_cache"`
	Endpoints  map[string]EndpointMetrics `json:"endpoints"`
}

// RouteCacheStats mirrors the server's candidate-cache counters.
type RouteCacheStats struct {
	Hits          uint64  `json:"hits"`
	Misses        uint64  `json:"misses"`
	HitRate       float64 `json:"hit_rate"`
	Evictions     uint64  `json:"evictions"`
	Invalidations uint64  `json:"invalidations"`
	Size          int     `json:"size"`
	Capacity      int     `json:"capacity"`
}

// EndpointMetrics is one endpoint's serving counters.
type EndpointMetrics struct {
	Count     uint64  `json:"count"`
	Errors4xx uint64  `json:"errors_4xx"`
	Errors5xx uint64  `json:"errors_5xx"`
	AvgMs     float64 `json:"avg_ms"`
	MaxMs     float64 `json:"max_ms"`
}

// Health fetches liveness, inventory sizes, cache counters, and the
// per-endpoint serving metrics.
func (c *Client) Health(ctx context.Context) (*Health, error) {
	var out Health
	if err := c.do(ctx, http.MethodGet, "/v1/health", nil, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// Page addresses one slice of a paginated listing. The zero value means the
// server defaults (limit 50, offset 0).
type Page struct {
	Limit  int
	Offset int
}

func (p Page) query() string {
	q := url.Values{}
	if p.Limit > 0 {
		q.Set("limit", strconv.Itoa(p.Limit))
	}
	if p.Offset > 0 {
		q.Set("offset", strconv.Itoa(p.Offset))
	}
	if enc := q.Encode(); enc != "" {
		return "?" + enc
	}
	return ""
}

// Truth is one verified-truth entry.
type Truth struct {
	From       int64   `json:"from"`
	To         int64   `json:"to"`
	Slot       int     `json:"slot"`
	Confidence float64 `json:"confidence"`
	Crowd      bool    `json:"crowd"`
	Nodes      int     `json:"nodes"`
}

// TruthPage is one page of the truth database.
type TruthPage struct {
	Items  []Truth `json:"items"`
	Total  int     `json:"total"`
	Limit  int     `json:"limit"`
	Offset int     `json:"offset"`
}

// Truths pages through the verified-truth database.
func (c *Client) Truths(ctx context.Context, page Page) (*TruthPage, error) {
	var out TruthPage
	if err := c.do(ctx, http.MethodGet, "/v1/truths"+page.query(), nil, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// Landmark is one landmark, ordered by significance.
type Landmark struct {
	ID           int32   `json:"id"`
	Name         string  `json:"name"`
	Kind         string  `json:"kind"`
	Significance float64 `json:"significance"`
	X            float64 `json:"x"`
	Y            float64 `json:"y"`
}

// LandmarkPage is one page of the landmark listing.
type LandmarkPage struct {
	Items  []Landmark `json:"items"`
	Total  int        `json:"total"`
	Limit  int        `json:"limit"`
	Offset int        `json:"offset"`
}

// Landmarks pages through the landmarks by descending significance.
func (c *Client) Landmarks(ctx context.Context, page Page) (*LandmarkPage, error) {
	var out LandmarkPage
	if err := c.do(ctx, http.MethodGet, "/v1/landmarks"+page.query(), nil, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// RankedWorker is one eligible worker for a landmark set.
type RankedWorker struct {
	ID     int32   `json:"id"`
	Score  float64 `json:"score"`
	Reward float64 `json:"reward"`
}

// TopWorkers ranks the k most eligible workers for the given landmarks.
// The server takes at most one ID per landmark it has, each in [0, number
// of landmarks); a longer list or any other ID is a bad_request error.
func (c *Client) TopWorkers(ctx context.Context, landmarks []int32, k int) ([]RankedWorker, error) {
	parts := make([]string, len(landmarks))
	for i, l := range landmarks {
		parts[i] = strconv.FormatInt(int64(l), 10)
	}
	q := url.Values{}
	q.Set("landmarks", strings.Join(parts, ","))
	if k > 0 {
		q.Set("k", strconv.Itoa(k))
	}
	var out []RankedWorker
	if err := c.do(ctx, http.MethodGet, "/v1/workers/top?"+q.Encode(), nil, &out); err != nil {
		return nil, err
	}
	return out, nil
}

// SourceStat is one provider's precision scoreboard entry.
type SourceStat struct {
	Source    string  `json:"source"`
	Wins      int     `json:"wins"`
	Total     int     `json:"total"`
	Precision float64 `json:"precision"`
}

// Sources fetches the per-provider precision scoreboard.
func (c *Client) Sources(ctx context.Context) ([]SourceStat, error) {
	var out []SourceStat
	if err := c.do(ctx, http.MethodGet, "/v1/sources", nil, &out); err != nil {
		return nil, err
	}
	return out, nil
}
