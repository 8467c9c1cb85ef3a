// Package crowd simulates the human side of CrowdPlanner and implements the
// server-side aggregation: simulated workers answer binary landmark
// questions with accuracy increasing in their familiarity, the early-stop
// component aggregates answers Bayesianly and cuts data collection once
// confident (paper's early stop), and the rewarding component credits
// workers (paper's rewarding component).
//
// The simulated crowd substitutes for the paper's "hundreds of volunteers";
// see DESIGN.md for the substitution rationale: the evaluated comparisons
// (eligible vs random workers, binary vs multiple choice, early stop on/off)
// only require that answer accuracy correlates with familiarity, which is
// the paper's own modelling assumption.
package crowd

import (
	"context"
	"math"
	"math/rand"
	"sort"

	"crowdplanner/internal/landmark"
	"crowdplanner/internal/task"
	"crowdplanner/internal/worker"
)

// AnswerModel maps a worker's familiarity with a landmark to the probability
// of answering a binary question about it correctly. Accuracy saturates:
// acc(f) = Max − (Max − Base)·e^{−Gain·f}; zero familiarity answers at Base
// (barely better than guessing).
type AnswerModel struct {
	Base float64 // accuracy at zero familiarity
	Max  float64 // asymptotic accuracy
	Gain float64 // how fast familiarity converts to accuracy
}

// DefaultAnswerModel starts at 55% and saturates at 95%.
func DefaultAnswerModel() AnswerModel {
	return AnswerModel{Base: 0.55, Max: 0.95, Gain: 1.2}
}

// Accuracy returns the answer accuracy for familiarity f.
func (m AnswerModel) Accuracy(f float64) float64 {
	if f < 0 {
		f = 0
	}
	return m.Max - (m.Max-m.Base)*math.Exp(-m.Gain*f)
}

// Answer is one worker's reply to one binary question.
type Answer struct {
	Worker  worker.ID
	Yes     bool
	AtMin   float64 // arrival time in minutes after the question was issued
	EstAcc  float64 // the system's accuracy estimate for this worker/landmark
	Correct bool    // bookkeeping for rewards; not visible to aggregation logic
}

// FamiliarityFn looks up the accumulated familiarity of a worker (by pool
// index) with a landmark.
type FamiliarityFn func(workerIdx int, l landmark.ID) float64

// AskQuestion simulates the selected workers answering the binary question
// "does the best route pass landmark l?" whose true answer is truth.
// Answers are returned in arrival-time order.
func AskQuestion(workers []worker.Ranked, l landmark.ID, truth bool, fam FamiliarityFn, model AnswerModel, rng *rand.Rand) []Answer {
	answers := make([]Answer, 0, len(workers))
	for _, r := range workers {
		w := r.Worker
		f := fam(int(w.ID), l)
		acc := model.Accuracy(f)
		correct := rng.Float64() < acc
		yes := truth == correct
		at := rng.ExpFloat64()
		if w.Lambda > 0 {
			at /= w.Lambda
		} else {
			at = math.Inf(1)
		}
		answers = append(answers, Answer{
			Worker: w.ID, Yes: yes, AtMin: at, EstAcc: acc, Correct: correct,
		})
	}
	sort.Slice(answers, func(i, j int) bool {
		if answers[i].AtMin != answers[j].AtMin {
			return answers[i].AtMin < answers[j].AtMin
		}
		return answers[i].Worker < answers[j].Worker
	})
	return answers
}

// Aggregate fuses answers into a yes/no decision with Bayesian log-odds:
// each answer multiplies the odds by acc/(1−acc) towards its vote. When
// earlyStop > 0.5, aggregation stops as soon as the posterior for either
// side reaches earlyStop (the paper's early-stop component); earlyStop <= 0.5
// consumes every answer. Returns the decision, the posterior confidence of
// that decision, and how many answers were consumed.
func Aggregate(answers []Answer, earlyStop float64) (yes bool, confidence float64, used int) {
	logOdds := 0.0
	for i, a := range answers {
		acc := clampAcc(a.EstAcc)
		llr := math.Log(acc / (1 - acc))
		if a.Yes {
			logOdds += llr
		} else {
			logOdds -= llr
		}
		used = i + 1
		if earlyStop > 0.5 {
			p := 1 / (1 + math.Exp(-logOdds))
			if p >= earlyStop || p <= 1-earlyStop {
				break
			}
		}
	}
	p := 1 / (1 + math.Exp(-logOdds))
	if p >= 0.5 {
		return true, p, used
	}
	return false, 1 - p, used
}

func clampAcc(a float64) float64 {
	if a < 0.51 {
		return 0.51
	}
	if a > 0.99 {
		return 0.99
	}
	return a
}

// TaskRun records how a crowd task resolved.
type TaskRun struct {
	Resolved      int     // winning candidate index
	QuestionsUsed int     // tree questions issued
	AnswersUsed   int     // total worker answers consumed (after early stop)
	AnswersAsked  int     // total worker answers collected (without early stop)
	ElapsedMin    float64 // simulated wall time: sum over questions of the slowest consumed answer
	MinConfidence float64 // smallest per-question aggregation confidence
}

// QuestionHook observes each answered question: the landmark asked, the
// collected answers (arrival order) and how many were consumed before early
// stop. The rewarding component hangs off this hook.
type QuestionHook func(l landmark.ID, answers []Answer, used int)

// RunTaskCtx walks the task's ID3 tree: at every internal node the assigned
// workers answer the node's question, Aggregate decides the branch, and the
// walk continues until a leaf resolves the task. truthSet is the landmark
// membership of the (simulated) true best route; hook observes each answered
// question (may be nil). Cancellation (or a passed deadline) is observed
// between questions, so a caller whose client has disconnected stops
// simulating the crowd. On cancellation it returns the partial run together
// with ctx.Err(); rewards already granted for completed questions stand.
func RunTaskCtx(ctx context.Context, t *task.Task, workers []worker.Ranked, truthSet map[landmark.ID]bool, fam FamiliarityFn, model AnswerModel, earlyStop float64, rng *rand.Rand, hook QuestionHook) (TaskRun, error) {
	run := TaskRun{MinConfidence: 1}
	node := t.Tree
	for node != nil && !node.IsLeaf() {
		if err := ctx.Err(); err != nil {
			return run, err
		}
		truth := truthSet[node.Landmark]
		answers := AskQuestion(workers, node.Landmark, truth, fam, model, rng)
		yes, conf, used := Aggregate(answers, earlyStop)
		run.QuestionsUsed++
		run.AnswersUsed += used
		run.AnswersAsked += len(answers)
		if used > 0 {
			run.ElapsedMin += answers[used-1].AtMin
		}
		if conf < run.MinConfidence {
			run.MinConfidence = conf
		}
		if hook != nil {
			hook(node.Landmark, answers, used)
		}
		if yes {
			node = node.Yes
		} else {
			node = node.No
		}
	}
	if node != nil {
		run.Resolved = node.Leaf()
	}
	return run, nil
}

// RewardConfig prices worker contributions (the paper's rewarding
// component: "according to their workload and the quality of their
// answers").
type RewardConfig struct {
	PerAnswer    float64 // workload component
	CorrectBonus float64 // quality component
}

// DefaultRewardConfig pays 1 point per answer plus 2 for correct ones.
func DefaultRewardConfig() RewardConfig { return RewardConfig{PerAnswer: 1, CorrectBonus: 2} }

// RewardEvent reports one applied credit: the worker, the landmark
// answered, whether the answer was judged correct, and the worker's state
// *after* the credit (reward balance and the landmark's answer tally). The
// serving core forwards these to the storage layer as worker-state WAL
// events; carrying absolute post-state keeps their replay idempotent.
type RewardEvent struct {
	Worker   worker.ID
	Landmark landmark.ID
	Correct  bool
	Balance  float64        // reward balance after the credit
	Tally    worker.History // per-landmark history after the credit
}

// Reward credits the workers who contributed the consumed answers and
// updates their per-landmark history, closing the loop that sharpens future
// familiarity scores. Only the first `used` answers (the ones actually
// consumed before early stop) are rewarded. The returned events mirror the
// mutations applied, in application order.
func Reward(pool *worker.Pool, l landmark.ID, answers []Answer, used int, cfg RewardConfig) []RewardEvent {
	events := make([]RewardEvent, 0, used)
	for i := 0; i < used && i < len(answers); i++ {
		a := answers[i]
		w := pool.Get(a.Worker)
		if w == nil {
			continue
		}
		w.Reward += cfg.PerAnswer
		if a.Correct {
			w.Reward += cfg.CorrectBonus
		}
		w.RecordAnswer(l, a.Correct)
		events = append(events, RewardEvent{
			Worker: a.Worker, Landmark: l, Correct: a.Correct,
			Balance: w.Reward, Tally: w.History[l],
		})
	}
	return events
}
