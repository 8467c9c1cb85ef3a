package core

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"crowdplanner/internal/geo"
	"crowdplanner/internal/landmark"
	"crowdplanner/internal/roadnet"
	"crowdplanner/internal/traj"
	"crowdplanner/internal/worker"
)

// TestConcurrentRecommendAndAsyncLifecycle hammers the serving core from
// many goroutines under the race detector: synchronous Recommend calls
// interleave with the full RecommendAsync/SubmitAnswer/ExpireTask
// lifecycle, worker-facing reads, and familiarity refreshes. Afterwards
// every Outstanding counter must be back at zero and no pending task may
// still be open.
func TestConcurrentRecommendAndAsyncLifecycle(t *testing.T) {
	// A private scenario: this test mutates pool state heavily.
	s := BuildScenario(SmallScenarioConfig())
	sys := s.System

	// Force a good mix of stages: keep reuse on (hit path contention) but
	// make agreement rare enough that crowd tasks actually happen.
	var reqs []Request
	for _, tr := range s.Data.Trips {
		if tr.Route.Empty() {
			continue
		}
		reqs = append(reqs, Request{From: tr.Route.Source(), To: tr.Route.Dest(), Depart: tr.Depart})
		if len(reqs) >= 60 {
			break
		}
	}
	if len(reqs) == 0 {
		t.Fatal("no usable trips")
	}

	const goroutines = 16
	var wg sync.WaitGroup
	errCh := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(1000 + g)))
			for i := 0; i < 30; i++ {
				req := reqs[(g*31+i)%len(reqs)]
				switch i % 4 {
				case 0, 1: // synchronous pipeline
					if _, err := sys.Recommend(context.Background(), req); err != nil {
						errCh <- fmt.Errorf("goroutine %d: Recommend: %w", g, err)
						return
					}
				case 2: // async lifecycle, driven to resolution or expiry
					resp, p, err := sys.RecommendAsync(context.Background(), req)
					if err != nil {
						errCh <- fmt.Errorf("goroutine %d: RecommendAsync: %w", g, err)
						return
					}
					if resp != nil || p == nil {
						continue // TR answered
					}
					if i%8 == 2 {
						if _, err := sys.ExpireTask(p.ID); err != nil && !errors.Is(err, ErrTaskClosed) {
							errCh <- fmt.Errorf("goroutine %d: ExpireTask: %w", g, err)
							return
						}
						continue
					}
					for rounds := 0; rounds < 200; rounds++ {
						lm, open := p.CurrentQuestion()
						if !open {
							break
						}
						_ = lm
						var done *Response
						for _, rk := range p.Assigned {
							r, err := sys.SubmitAnswer(p.ID, rk.Worker.ID, rng.Intn(2) == 0)
							if err != nil {
								if errors.Is(err, ErrAlreadyAnswer) || errors.Is(err, ErrTaskClosed) {
									continue
								}
								errCh <- fmt.Errorf("goroutine %d: SubmitAnswer: %w", g, err)
								return
							}
							if r != nil {
								done = r
								break
							}
						}
						if done != nil {
							break
						}
					}
				case 3: // concurrent readers
					_ = sys.Familiarity()
					_ = sys.TrueFamiliarity()
					_ = sys.SourceStats()
					_ = sys.RouteCacheStats()
					if len(s.Pool.Workers) > 0 {
						// Observe other goroutines' in-flight tasks while
						// their answers are arriving — the state-poll race.
						for _, pt := range sys.PendingTasks(s.Pool.Workers[g%len(s.Pool.Workers)].ID) {
							_, _ = pt.CurrentQuestion()
							_, _ = pt.Status()
						}
					}
					var lids []landmark.ID
					for _, l := range s.Landmarks.TopBySignificance(3) {
						lids = append(lids, l.ID)
					}
					_ = sys.TopWorkers(lids, 5, sys.Config().Select)
					if i%10 == 3 {
						sys.RefreshFamiliarity()
					}
				}
			}
		}(g)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Error(err)
	}

	// Every assignment must have been released.
	for _, w := range s.Pool.Workers {
		if w.Outstanding != 0 {
			t.Errorf("worker %d Outstanding = %d, want 0", w.ID, w.Outstanding)
		}
	}
	// No task may be left open (each was driven to resolution or expired;
	// undriven ones would leak Outstanding counters too).
	sys.mu.Lock()
	for id, p := range sys.pending {
		if p.State == TaskOpen {
			t.Errorf("task %d still open after the hammer", id)
		}
	}
	sys.mu.Unlock()
	if sys.TruthDB().Len() == 0 {
		t.Error("no truths stored")
	}
}

// TestRecommendDeterministicForSeed verifies the reproducibility contract:
// two systems built from the same config, serving the same single-threaded
// request sequence, produce identical routes, stages and confidences —
// including through the crowd path, whose randomness is derived from
// (Config.Seed, task ID) rather than a shared stream.
func TestRecommendDeterministicForSeed(t *testing.T) {
	run := func() []string {
		s := BuildScenario(SmallScenarioConfig())
		var out []string
		n := 0
		for _, tr := range s.Data.Trips {
			if tr.Route.Empty() {
				continue
			}
			resp, err := s.System.Recommend(context.Background(), Request{
				From: tr.Route.Source(), To: tr.Route.Dest(), Depart: tr.Depart,
			})
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, fmt.Sprintf("%v|%s|%.9f", resp.Route.Nodes, resp.Stage, resp.Confidence))
			if n++; n >= 40 {
				break
			}
		}
		return out
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("run lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Errorf("request %d diverged:\n  run1: %s\n  run2: %s", i, a[i], b[i])
		}
	}
}

// TestTaskSeedIndependentStreams sanity-checks the per-task seed mixer:
// adjacent task IDs must not produce identical or trivially shifted seeds.
func TestTaskSeedIndependentStreams(t *testing.T) {
	seen := map[int64]bool{}
	for id := int64(1); id <= 1000; id++ {
		s := taskSeed(7, id)
		if seen[s] {
			t.Fatalf("seed collision at task %d", id)
		}
		seen[s] = true
	}
	if taskSeed(1, 5) == taskSeed(2, 5) {
		t.Error("config seed must perturb the task seed")
	}
}

// TestNoCandidatesError is the regression test for the empty-candidate
// divisions in agreement and bestByConsensus: a request whose destination
// no provider can reach must surface ErrNoCandidates, not a panic or NaN.
func TestNoCandidatesError(t *testing.T) {
	// Two islands: nodes 0-1 connected, node 2 unreachable.
	g := roadnet.NewGraph(3, 2)
	a := g.AddNode(geo.Point{X: 0, Y: 0})
	b := g.AddNode(geo.Point{X: 100, Y: 0})
	c := g.AddNode(geo.Point{X: 5000, Y: 5000})
	g.AddRoad(a, b, roadnet.Local, 40, 0)

	lms := landmark.NewSet(nil)
	data := traj.NewDataset(g, nil, nil)
	pool := &worker.Pool{}
	cfg := DefaultConfig()
	sys := New(cfg, g, lms, data, pool, &PopulationOracle{Data: data, Sample: 1})

	if _, err := sys.Recommend(context.Background(), Request{From: a, To: c, Depart: 0}); !errors.Is(err, ErrNoCandidates) {
		t.Errorf("disconnected OD: err = %v, want ErrNoCandidates", err)
	}
	// Direct guards: empty candidate sets must not panic or divide by zero.
	if _, _, ok := sys.agreement(nil); ok {
		t.Error("agreement(nil) reported agreement")
	}
	if got := bestByConsensus(nil); got.Route.Nodes != nil {
		t.Errorf("bestByConsensus(nil) = %+v, want zero candidate", got)
	}
}
