package crowd

import (
	"context"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"crowdplanner/internal/calibrate"
	"crowdplanner/internal/geo"
	"crowdplanner/internal/landmark"
	"crowdplanner/internal/task"
	"crowdplanner/internal/worker"
)

func TestAnswerModelAccuracy(t *testing.T) {
	m := DefaultAnswerModel()
	if got := m.Accuracy(0); math.Abs(got-m.Base) > 1e-9 {
		t.Errorf("acc(0) = %v, want base %v", got, m.Base)
	}
	if m.Accuracy(1) <= m.Accuracy(0.1) {
		t.Error("accuracy should increase with familiarity")
	}
	if got := m.Accuracy(100); got > m.Max+1e-9 {
		t.Errorf("acc(100) = %v exceeds max %v", got, m.Max)
	}
	if got := m.Accuracy(-5); math.Abs(got-m.Base) > 1e-9 {
		t.Errorf("negative familiarity should clamp to base: %v", got)
	}
}

func mkWorkers(lambdas ...float64) []worker.Ranked {
	out := make([]worker.Ranked, len(lambdas))
	for i, l := range lambdas {
		out[i] = worker.Ranked{Worker: &worker.Worker{ID: worker.ID(i), Lambda: l}, Score: 1}
	}
	return out
}

func constFam(f float64) FamiliarityFn {
	return func(int, landmark.ID) float64 { return f }
}

func TestAskQuestionOrderAndAccuracy(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	workers := mkWorkers(1, 0.1, 10)
	answers := AskQuestion(workers, 0, true, constFam(5), DefaultAnswerModel(), rng)
	if len(answers) != 3 {
		t.Fatalf("answers = %d", len(answers))
	}
	for i := 1; i < len(answers); i++ {
		if answers[i].AtMin < answers[i-1].AtMin {
			t.Error("answers must arrive in time order")
		}
	}
	// With high familiarity nearly all answers should be correct over many
	// trials.
	correct, total := 0, 0
	for trial := 0; trial < 200; trial++ {
		for _, a := range AskQuestion(workers, 0, true, constFam(5), DefaultAnswerModel(), rng) {
			total++
			if a.Yes {
				correct++
			}
		}
	}
	if rate := float64(correct) / float64(total); rate < 0.85 {
		t.Errorf("high-familiarity accuracy = %v", rate)
	}
	// With zero familiarity the rate should sit near the base.
	correct, total = 0, 0
	for trial := 0; trial < 300; trial++ {
		for _, a := range AskQuestion(workers, 0, true, constFam(0), DefaultAnswerModel(), rng) {
			total++
			if a.Yes {
				correct++
			}
		}
	}
	rate := float64(correct) / float64(total)
	if rate < 0.45 || rate > 0.67 {
		t.Errorf("zero-familiarity accuracy = %v, want ≈0.55", rate)
	}
}

func TestAggregateMajority(t *testing.T) {
	answers := []Answer{
		{Yes: true, EstAcc: 0.8},
		{Yes: true, EstAcc: 0.8},
		{Yes: false, EstAcc: 0.8},
	}
	yes, conf, used := Aggregate(answers, 0)
	if !yes {
		t.Error("majority yes should win")
	}
	if used != 3 {
		t.Errorf("no early stop should consume all: used=%d", used)
	}
	if conf <= 0.5 || conf > 1 {
		t.Errorf("confidence = %v", conf)
	}
}

func TestAggregateEarlyStopSavesAnswers(t *testing.T) {
	var answers []Answer
	for i := 0; i < 9; i++ {
		answers = append(answers, Answer{Yes: true, EstAcc: 0.9})
	}
	yes, conf, used := Aggregate(answers, 0.95)
	if !yes {
		t.Error("unanimous yes should win")
	}
	if used >= 9 {
		t.Errorf("early stop should consume fewer than all 9: used=%d", used)
	}
	if conf < 0.95 {
		t.Errorf("stop confidence = %v below threshold", conf)
	}
	// Without early stop, everything is consumed.
	_, _, usedAll := Aggregate(answers, 0)
	if usedAll != 9 {
		t.Errorf("usedAll = %d", usedAll)
	}
}

func TestAggregateConflictKeepsCollecting(t *testing.T) {
	answers := []Answer{
		{Yes: true, EstAcc: 0.8},
		{Yes: false, EstAcc: 0.8},
		{Yes: true, EstAcc: 0.8},
		{Yes: false, EstAcc: 0.8},
	}
	_, conf, used := Aggregate(answers, 0.99)
	if used != 4 {
		t.Errorf("conflicting stream should consume all: %d", used)
	}
	if conf > 0.9 {
		t.Errorf("confidence after conflict = %v", conf)
	}
}

func TestAggregateNoAnswers(t *testing.T) {
	yes, conf, used := Aggregate(nil, 0.9)
	if used != 0 {
		t.Errorf("used = %d", used)
	}
	if !yes || math.Abs(conf-0.5) > 1e-9 {
		t.Errorf("empty aggregate = %v %v", yes, conf)
	}
}

func TestClampAcc(t *testing.T) {
	if clampAcc(0.1) != 0.51 || clampAcc(0.999) != 0.99 || clampAcc(0.8) != 0.8 {
		t.Error("clampAcc bounds wrong")
	}
}

// buildTask creates a 4-candidate task over 4 landmarks.
func buildTask(t *testing.T) (*task.Task, map[int]map[landmark.ID]bool) {
	t.Helper()
	ls := []*landmark.Landmark{
		{ID: 0, Pt: geo.Point{X: 0}, Significance: 0.9},
		{ID: 1, Pt: geo.Point{X: 10}, Significance: 0.8},
		{ID: 2, Pt: geo.Point{X: 20}, Significance: 0.7},
		{ID: 3, Pt: geo.Point{X: 30}, Significance: 0.6},
	}
	set := landmark.NewSet(ls)
	mk := func(src string, ids ...landmark.ID) task.Candidate {
		return task.Candidate{Source: src, LRoute: calibrate.LandmarkRoute{Landmarks: ids}}
	}
	cands := []task.Candidate{
		mk("c0", 0, 3),
		mk("c1", 1, 3),
		mk("c2", 0, 1, 3),
		mk("c3", 3),
	}
	tk, err := task.Generate(1, set, cands, task.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	truths := map[int]map[landmark.ID]bool{}
	for i, c := range cands {
		truths[i] = c.LRoute.IDSet()
	}
	return tk, truths
}

func TestRunTaskResolvesWithGoodWorkers(t *testing.T) {
	tk, truths := buildTask(t)
	rng := rand.New(rand.NewSource(7))
	workers := mkWorkers(1, 1, 1, 1, 1)
	hits := 0
	trials := 0
	for truthIdx := 0; truthIdx < 4; truthIdx++ {
		for rep := 0; rep < 25; rep++ {
			run, _ := RunTaskCtx(context.Background(), tk, workers, truths[truthIdx], constFam(5), DefaultAnswerModel(), 0.9, rng, nil)
			trials++
			if run.Resolved == truthIdx {
				hits++
			}
			if run.QuestionsUsed < 1 || run.QuestionsUsed > len(tk.Questions) {
				t.Errorf("questions used = %d", run.QuestionsUsed)
			}
			if run.AnswersUsed > run.AnswersAsked {
				t.Error("used answers exceed asked")
			}
		}
	}
	if rate := float64(hits) / float64(trials); rate < 0.9 {
		t.Errorf("resolution accuracy with expert workers = %v", rate)
	}
}

func TestRunTaskEarlyStopReducesAnswers(t *testing.T) {
	tk, truths := buildTask(t)
	workers := mkWorkers(1, 1, 1, 1, 1, 1, 1, 1, 1)
	sumWith, sumWithout := 0, 0
	for rep := 0; rep < 40; rep++ {
		rng := rand.New(rand.NewSource(int64(rep)))
		runWith, _ := RunTaskCtx(context.Background(), tk, workers, truths[0], constFam(5), DefaultAnswerModel(), 0.9, rng, nil)
		rng = rand.New(rand.NewSource(int64(rep)))
		runWithout, _ := RunTaskCtx(context.Background(), tk, workers, truths[0], constFam(5), DefaultAnswerModel(), 0, rng, nil)
		sumWith += runWith.AnswersUsed
		sumWithout += runWithout.AnswersUsed
	}
	if sumWith >= sumWithout {
		t.Errorf("early stop should save answers: %d vs %d", sumWith, sumWithout)
	}
}

func TestRunTaskAccuracyDropsWithUnfamiliarWorkers(t *testing.T) {
	tk, truths := buildTask(t)
	expert := mkWorkers(1, 1, 1, 1, 1)
	novice := mkWorkers(1, 1, 1, 1, 1)
	expertHits, noviceHits, trials := 0, 0, 0
	for rep := 0; rep < 60; rep++ {
		for truthIdx := 0; truthIdx < 4; truthIdx++ {
			rngE := rand.New(rand.NewSource(int64(rep*4 + truthIdx)))
			rngN := rand.New(rand.NewSource(int64(rep*4 + truthIdx)))
			trials++
			if run, _ := RunTaskCtx(context.Background(), tk, expert, truths[truthIdx], constFam(5), DefaultAnswerModel(), 0.9, rngE, nil); run.Resolved == truthIdx {
				expertHits++
			}
			if run, _ := RunTaskCtx(context.Background(), tk, novice, truths[truthIdx], constFam(0), DefaultAnswerModel(), 0.9, rngN, nil); run.Resolved == truthIdx {
				noviceHits++
			}
		}
	}
	if expertHits <= noviceHits {
		t.Errorf("experts (%d) should beat novices (%d) of %d", expertHits, noviceHits, trials)
	}
}

func TestReward(t *testing.T) {
	pool := &worker.Pool{Workers: []*worker.Worker{
		{ID: 0}, {ID: 1},
	}}
	answers := []Answer{
		{Worker: 0, Correct: true},
		{Worker: 1, Correct: false},
		{Worker: 0, Correct: true}, // beyond used: not rewarded
	}
	Reward(pool, 5, answers, 2, DefaultRewardConfig())
	if pool.Workers[0].Reward != 3 { // 1 + 2 bonus
		t.Errorf("worker0 reward = %v", pool.Workers[0].Reward)
	}
	if pool.Workers[1].Reward != 1 { // answer only
		t.Errorf("worker1 reward = %v", pool.Workers[1].Reward)
	}
	if h := pool.Workers[0].History[5]; h.Correct != 1 || h.Wrong != 0 {
		t.Errorf("history = %+v", h)
	}
	if h := pool.Workers[1].History[5]; h.Wrong != 1 {
		t.Errorf("history = %+v", h)
	}
	// Unknown worker IDs are skipped without panicking.
	Reward(pool, 5, []Answer{{Worker: 99}}, 1, DefaultRewardConfig())
}

func TestPropertyAggregateConfidence(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(12)
		answers := make([]Answer, n)
		for i := range answers {
			answers[i] = Answer{
				Yes:    rng.Intn(2) == 0,
				EstAcc: 0.5 + rng.Float64()*0.49,
			}
		}
		stop := 0.5 + rng.Float64()*0.49
		yes, conf, used := Aggregate(answers, stop)
		_ = yes
		if conf < 0.5-1e-9 || conf > 1+1e-9 {
			return false
		}
		if used < 1 || used > n {
			return false
		}
		// Early stop can only reduce the consumed count.
		_, _, usedAll := Aggregate(answers, 0)
		return used <= usedAll
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
