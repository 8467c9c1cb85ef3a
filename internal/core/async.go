package core

import (
	"context"
	"errors"
	"fmt"
	"sort"

	"crowdplanner/internal/crowd"
	"crowdplanner/internal/landmark"
	roadnetpkg "crowdplanner/internal/roadnet"
	"crowdplanner/internal/task"
	"crowdplanner/internal/worker"
)

// The asynchronous task lifecycle implements the paper's actual deployment
// protocol: the server publishes a task, the assigned workers' mobile
// clients fetch the current question and submit answers, and the early-stop
// component resolves each question — and eventually the task — as answers
// arrive. RecommendAsync replaces the simulated synchronous crowd of
// Recommend with this open-loop protocol.

// TaskState is the lifecycle state of a pending crowd task.
type TaskState int

// Task lifecycle states.
const (
	// TaskOpen: questions remain; answers are being collected.
	TaskOpen TaskState = iota
	// TaskResolved: a route has been determined and stored as truth.
	TaskResolved
	// TaskExpired: the deadline passed; the provider consensus was used.
	TaskExpired
)

// String implements fmt.Stringer.
func (s TaskState) String() string {
	switch s {
	case TaskOpen:
		return "open"
	case TaskResolved:
		return "resolved"
	case TaskExpired:
		return "expired"
	default:
		return fmt.Sprintf("TaskState(%d)", int(s))
	}
}

// PendingTask is a crowd task awaiting worker answers.
//
// Once the task closes, System.PendingTask returns a record of it instead:
// ID, Req, Assigned, State and a Result whose Task, Run and Workers are nil
// and whose candidates carry no landmark routes.
//
// ID, Req, Task and Assigned are immutable after publication. State, Result
// and the tree cursor mutate under the owning system's lock as answers
// arrive; concurrent observers (e.g. a state poll racing an answer) must
// read them through CurrentQuestion/Status rather than the raw fields.
type PendingTask struct {
	ID       int64
	Req      Request
	Task     *task.Task
	Assigned []worker.Ranked
	State    TaskState
	Result   *Response // non-nil once resolved or expired

	owner    *System        // whose mu guards the mutable fields below
	node     *task.TreeNode // current position in the question tree
	answers  []crowd.Answer // answers to the current question
	answered map[worker.ID]bool
	// decisions records the yes/no branch taken at each closed question, in
	// order — the storage layer persists it so a restarted server can walk a
	// regenerated tree back to the current position.
	decisions []bool
	// published marks tasks that were registered (and logged as open); only
	// those log a close event.
	published bool
	// stats
	questionsUsed int
	answersUsed   int
}

// lock takes the owning system's lock (no-op for a zero PendingTask).
func (p *PendingTask) lock() func() {
	if p.owner == nil {
		return func() {}
	}
	p.owner.mu.Lock()
	return p.owner.mu.Unlock
}

// CurrentQuestion returns the landmark currently being asked; ok is false
// once the task is no longer open. Safe against concurrent SubmitAnswer
// calls advancing the task.
func (p *PendingTask) CurrentQuestion() (landmark.ID, bool) {
	defer p.lock()()
	if p.State != TaskOpen || p.node == nil || p.node.IsLeaf() {
		return 0, false
	}
	return p.node.Landmark, true
}

// Status returns the task's lifecycle state and final result (nil while
// open) as one consistent snapshot, synchronized against concurrent
// SubmitAnswer/ExpireTask calls.
func (p *PendingTask) Status() (TaskState, *Response) {
	defer p.lock()()
	return p.State, p.Result
}

// IsAssigned reports whether the worker is assigned to this task.
func (p *PendingTask) IsAssigned(w worker.ID) bool {
	for _, r := range p.Assigned {
		if r.Worker.ID == w {
			return true
		}
	}
	return false
}

// Async errors.
var (
	ErrUnknownTask   = errors.New("core: unknown task id")
	ErrTaskClosed    = errors.New("core: task is no longer open")
	ErrNotAssigned   = errors.New("core: worker is not assigned to this task")
	ErrAlreadyAnswer = errors.New("core: worker already answered the current question")
)

// RecommendAsync processes a request like Recommend, but when the crowd is
// needed it publishes a PendingTask instead of simulating the answers: the
// returned Response is nil and the ticket must be driven to resolution with
// SubmitAnswer. When the TR module resolves the request, the Response is
// returned directly with a nil ticket.
//
// The context covers the synchronous part only (validation, candidate
// generation, task publication): a cancellation before the ticket is
// registered returns ctx.Err() with every claimed worker released and no
// pending task leaked. Once the ticket is returned, the task's lifetime is
// governed by SubmitAnswer/ExpireTask, not by this context.
func (s *System) RecommendAsync(ctx context.Context, req Request) (*Response, *PendingTask, error) {
	resp, cands, err := s.resolveTraditional(ctx, req)
	if err != nil {
		return nil, nil, err
	}
	if resp != nil {
		return resp, nil, nil
	}

	ct, resp, err := s.prepareCrowdTask(req, cands)
	if ct == nil {
		return resp, nil, err
	}
	if err := ctx.Err(); err != nil {
		// Cancelled between claim and publication: release the claims so no
		// pending task (or stuck Outstanding counter) leaks.
		s.releaseWorkers(ct.assigned)
		return nil, nil, err
	}

	p := &PendingTask{
		ID: ct.tk.ID, Req: req, Task: ct.tk, Assigned: ct.assigned,
		State: TaskOpen, node: ct.tk.Tree, owner: s,
		answered: make(map[worker.ID]bool),
	}
	// A degenerate tree (single candidate after merge handled above, but a
	// defensive leaf root) resolves immediately.
	if p.node == nil || p.node.IsLeaf() {
		var batch walBatch
		s.mu.Lock()
		s.finishPending(p, TaskResolved, 1, &batch)
		s.mu.Unlock()
		s.flushWAL(&batch)
		return p.Result, nil, nil
	}

	s.mu.Lock()
	if s.pending == nil {
		s.pending = make(map[int64]*PendingTask)
	}
	s.pending[p.ID] = p
	p.published = true
	rec := pendingToRecord(p)
	s.mu.Unlock()
	// Logged before the ticket is returned: a client can only reference the
	// task after its open record is durable.
	s.logTaskOpen(rec)
	return nil, p, nil
}

// resolveTraditional runs stages 1–4 of the pipeline. It returns a non-nil
// Response when the TR module answered; otherwise the candidate set for the
// crowd, with priors filled in.
func (s *System) resolveTraditional(ctx context.Context, req Request) (*Response, []task.Candidate, error) {
	n := roadnetpkg.NodeID(s.graph.NumNodes())
	if req.From < 0 || req.From >= n || req.To < 0 || req.To >= n || req.From == req.To {
		return nil, nil, fmt.Errorf("%w: from=%d to=%d", ErrBadRequest, req.From, req.To)
	}
	if s.cfg.ReuseTruth {
		if e, ok := s.truth.Lookup(req.From, req.To, req.Depart); ok {
			return &Response{Route: e.Route, Stage: StageReuse, Confidence: e.Confidence}, nil, nil
		}
	}
	cands, err := s.generateCandidates(ctx, req)
	if err != nil {
		return nil, nil, err
	}
	if len(cands) == 0 {
		return nil, nil, ErrNoCandidates
	}
	if best, sim, ok := s.agreement(cands); ok {
		s.logTruth(s.storeTruth(req, best.Route, sim, false))
		s.reliance.record(cands, best.Route)
		return &Response{Route: best.Route, Stage: StageAgreement, Confidence: sim, Candidates: cands}, nil, nil
	}
	// Batched confidence: every candidate shares the request's OD pair, so
	// scoring them together runs the truth store's Near scan once instead of
	// once per candidate. Scores are identical to per-candidate Confidence
	// calls (see truth.ConfidenceBatch).
	candRoutes := make([]roadnetpkg.Route, len(cands))
	for i := range cands {
		candRoutes[i] = cands[i].Route
	}
	confs := s.truth.ConfidenceBatch(s.graph, candRoutes, req.Depart, s.cfg.TruthRadius, s.cfg.TruthSlotTol)
	bestIdx, bestConf := -1, 0.0
	for i := range cands {
		c := confs[i]
		cands[i].Prior = c
		if c > bestConf {
			bestConf, bestIdx = c, i
		}
	}
	if bestIdx >= 0 && bestConf >= s.cfg.EtaConfidence {
		s.logTruth(s.storeTruth(req, cands[bestIdx].Route, bestConf, false))
		s.reliance.record(cands, cands[bestIdx].Route)
		return &Response{
			Route: cands[bestIdx].Route, Stage: StageConfidence,
			Confidence: bestConf, Candidates: cands,
		}, nil, nil
	}
	return nil, cands, nil
}

// SourceStats returns the per-provider precision scoreboard (the future-
// work quality-control extension). Sources are credited whenever a request
// resolves with a verified route: proposals matching the verdict win.
func (s *System) SourceStats() []SourceStats {
	return s.reliance.snapshot()
}

// PendingTasks returns the open tasks a worker is assigned to.
func (s *System) PendingTasks(w worker.ID) []*PendingTask {
	s.mu.Lock()
	defer s.mu.Unlock()
	var out []*PendingTask
	for _, p := range s.pending {
		if p.IsAssigned(w) && !p.answered[w] {
			out = append(out, p)
		}
	}
	// s.pending is a map: without this sort the slice order would change
	// run to run and leak into worker-facing task listings.
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// PendingTask returns the task with the given ID: an open task, or one of
// the last RetainedClosedTasks closed ones as a record of its state, result
// and assigned workers (no question tree, no landmark routes, no answers).
// Tasks that closed earlier are forgotten.
func (s *System) PendingTask(id int64) (*PendingTask, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if p, ok := s.pending[id]; ok {
		return p, true
	}
	return s.closed.get(id)
}

// OpenTasks counts the pending tasks still collecting answers. Surfaced on
// GET /v1/health and used by tests to assert no task leaks on cancellation.
func (s *System) OpenTasks() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.pending)
}

// openTask returns open task id, or ErrTaskClosed for a task that closed
// recently enough to be remembered, or ErrUnknownTask. Caller holds mu.
func (s *System) openTask(id int64) (*PendingTask, error) {
	if p, ok := s.pending[id]; ok {
		return p, nil
	}
	if _, ok := s.closed.get(id); ok {
		return nil, ErrTaskClosed
	}
	return nil, ErrUnknownTask
}

// RetainedClosedTasks is the number of closed tasks a System remembers, for
// GET /v1/tasks/{id} and the task_closed reply; a task that closed earlier
// is unknown (ErrUnknownTask), as if it had never been published.
const RetainedClosedTasks = 1024

// closedTasks is a ring of the most recently closed tasks.
type closedTasks struct {
	ring [RetainedClosedTasks]*PendingTask
	next int           // the slot the next closed task takes
	slot map[int64]int // task ID → ring slot
}

func (c *closedTasks) get(id int64) (*PendingTask, bool) {
	i, ok := c.slot[id]
	if !ok {
		return nil, false
	}
	return c.ring[i], true
}

// add remembers a closed task, forgetting the oldest when the ring is full.
func (c *closedTasks) add(p *PendingTask) {
	if c.slot == nil {
		c.slot = make(map[int64]int, RetainedClosedTasks)
	}
	if old := c.ring[c.next]; old != nil {
		delete(c.slot, old.ID)
	}
	c.ring[c.next] = p
	c.slot[p.ID] = c.next
	c.next = (c.next + 1) % RetainedClosedTasks
}

// retire moves a closed task from pending into the closed ring, as a record
// of what the task endpoints still read: its state, result and assigned
// workers. Caller holds mu.
func (s *System) retire(p *PendingTask) {
	delete(s.pending, p.ID)
	res := *p.Result
	res.Task, res.Run, res.Workers = nil, nil, nil
	res.Candidates = make([]task.Candidate, len(p.Result.Candidates))
	for i, c := range p.Result.Candidates {
		res.Candidates[i] = task.Candidate{Source: c.Source, Route: c.Route, Prior: c.Prior}
	}
	s.closed.add(&PendingTask{
		ID: p.ID, Req: p.Req, Assigned: p.Assigned, State: p.State, Result: &res, owner: s,
	})
}

// SubmitAnswer records worker w's answer to the current question of task
// id. When the answer completes the question (early-stop confidence reached
// or every assigned worker answered), the task advances down the tree; on
// reaching a leaf the task resolves, the winner is stored as truth, workers
// are rewarded, and the final Response is returned. Until then the returned
// Response is nil. Commit records produced under the lock are flushed to the
// storage backend before returning.
func (s *System) SubmitAnswer(id int64, w worker.ID, yes bool) (*Response, error) {
	var batch walBatch
	resp, err := s.submitAnswerBatched(id, w, yes, &batch)
	s.flushWAL(&batch)
	return resp, err
}

// submitAnswerBatched takes mu itself and collects commit records into
// batch for the caller to flush after the lock is released.
func (s *System) submitAnswerBatched(id int64, w worker.ID, yes bool, batch *walBatch) (*Response, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	p, err := s.openTask(id)
	if err != nil {
		return nil, err
	}
	if !p.IsAssigned(w) {
		return nil, ErrNotAssigned
	}
	if p.answered[w] {
		return nil, ErrAlreadyAnswer
	}
	lm := p.node.Landmark
	est := s.cfg.Answers.Accuracy(s.famEstimate(int(w), lm))
	p.answered[w] = true
	p.answers = append(p.answers, crowd.Answer{Worker: w, Yes: yes, EstAcc: est})

	decided, goYes := s.questionDecided(p)
	if !decided {
		return nil, nil
	}
	s.advancePending(p, goYes, batch)
	if p.State == TaskResolved {
		return p.Result, nil
	}
	return nil, nil
}

// famEstimate looks up the system's estimated familiarity (caller holds mu).
func (s *System) famEstimate(workerIdx int, l landmark.ID) float64 {
	if v, ok := s.mstar.Get(workerIdx, int(l)); ok {
		return v
	}
	return 0
}

// questionDecided checks whether the current question can be closed: the
// early-stop posterior is confident, or every assigned worker has answered.
// Caller holds mu.
func (s *System) questionDecided(p *PendingTask) (decided, yes bool) {
	yesVote, conf, _ := crowd.Aggregate(p.answers, s.cfg.EarlyStop)
	threshold := s.cfg.EarlyStop
	if threshold <= 0.5 {
		threshold = 1.01 // early stop disabled: wait for everyone
	}
	if conf >= threshold {
		return true, yesVote
	}
	if len(p.answers) >= len(p.Assigned) {
		return true, yesVote
	}
	return false, false
}

// advancePending closes the current question, rewards its answers, and
// descends the tree; resolves the task at a leaf. Caller holds mu; commit
// records go into batch for the caller to flush after release.
func (s *System) advancePending(p *PendingTask, yes bool, batch *walBatch) {
	lm := p.node.Landmark
	// Reward by participation; correctness is judged against the decided
	// outcome (majority), the usual proxy when no oracle exists.
	for i := range p.answers {
		p.answers[i].Correct = p.answers[i].Yes == yes
	}
	s.poolMu.Lock()
	batch.events = append(batch.events, crowd.Reward(s.pool, lm, p.answers, len(p.answers), s.cfg.Rewards)...)
	s.poolMu.Unlock()
	p.questionsUsed++
	p.answersUsed += len(p.answers)
	p.answers = nil
	p.answered = make(map[worker.ID]bool)

	p.decisions = append(p.decisions, yes)
	batch.decis = append(batch.decis, taskDecision{id: p.ID, index: len(p.decisions) - 1, yes: yes})
	if yes {
		p.node = p.node.Yes
	} else {
		p.node = p.node.No
	}
	if p.node == nil || p.node.IsLeaf() {
		s.finishPending(p, TaskResolved, 0, batch)
	}
}

// finishPending finalizes a pending task and, if it was published, retires
// it from pending. Caller holds mu and flushes batch after release.
// confOverride > 0 forces a confidence value.
func (s *System) finishPending(p *PendingTask, state TaskState, confOverride float64, batch *walBatch) {
	var winner task.Candidate
	conf := confOverride
	switch {
	case state == TaskResolved && p.node != nil:
		winner = p.Task.Candidates[p.node.Leaf()]
		if conf <= 0 {
			conf = 0.9 // the per-question early-stop threshold bounds this
		}
	default:
		winner = bestByConsensus(p.Task.Candidates)
		if conf <= 0 {
			conf = 0.5
		}
	}
	stage := StageCrowd
	if state == TaskExpired {
		stage = StageFallback
	}
	batch.truths = append(batch.truths, s.storeTruth(p.Req, winner.Route, conf, state == TaskResolved))
	if state == TaskResolved {
		s.reliance.record(p.Task.Candidates, winner.Route)
	}
	run := crowd.TaskRun{
		Resolved:      indexOf(p.Task.Candidates, winner),
		QuestionsUsed: p.questionsUsed,
		AnswersUsed:   p.answersUsed,
		AnswersAsked:  p.answersUsed,
		MinConfidence: conf,
	}
	p.Result = &Response{
		Route: winner.Route, Stage: stage, Confidence: conf,
		Candidates: p.Task.Candidates, Task: p.Task, Run: &run, Workers: p.Assigned,
	}
	p.State = state
	if p.published {
		batch.closes = append(batch.closes, p.ID)
		s.retire(p)
	}
	s.poolMu.Lock()
	for _, r := range p.Assigned {
		if r.Worker.Outstanding > 0 {
			r.Worker.Outstanding--
		}
	}
	s.poolMu.Unlock()
}

func indexOf(cands []task.Candidate, c task.Candidate) int {
	for i := range cands {
		if cands[i].Route.Equal(c.Route) {
			return i
		}
	}
	return 0
}

// ExpireTask forcibly closes an open task (deadline passed); the provider
// consensus route is stored with low confidence.
func (s *System) ExpireTask(id int64) (*Response, error) {
	var batch walBatch
	resp, err := func() (*Response, error) {
		s.mu.Lock()
		defer s.mu.Unlock()
		p, err := s.openTask(id)
		if err != nil {
			return nil, err
		}
		s.finishPending(p, TaskExpired, 0, &batch)
		return p.Result, nil
	}()
	s.flushWAL(&batch)
	return resp, err
}
