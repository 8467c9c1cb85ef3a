package main

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

// TestWorkloadsSelfCheck runs every workload, untraced and traced, on the
// small world for a few hundred requests: all output checks, the replay
// check and the leak checks must pass, and the result line must carry every
// metric of its mode.
func TestWorkloadsSelfCheck(t *testing.T) {
	for _, name := range []string{"hot-reuse", "cold-crowd", "feed-async"} {
		for _, trace := range []bool{false, true} {
			o := options{
				workload: name, seed: 7, seconds: 30, trace: trace, small: true,
				setups: 2, maxReqs: 150, sample: 100, scratch: t.TempDir(),
			}
			res, err := workloads[name](o)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", name, trace, err)
			}
			var out bytes.Buffer
			ok := report(&out, o, res)
			if !ok || res.failed != 0 {
				t.Errorf("%s trace=%v: %d failed checks: %v", name, trace, res.failed, res.failures)
			}
			lines := strings.Split(strings.TrimSpace(out.String()), "\n")
			var line struct {
				Correct   bool                      `json:"correct"`
				Attempted int                       `json:"attempted"`
				Failed    int                       `json:"failed"`
				Metrics   map[string]map[string]any `json:"metrics"`
			}
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &line); err != nil {
				t.Fatalf("%s trace=%v: last line is not the JSON result: %v", name, trace, err)
			}
			want := res.e2e
			if trace {
				want = res.layers
			}
			if len(line.Metrics) != len(want) || len(want) == 0 || line.Attempted < 1 {
				t.Errorf("%s trace=%v: %d metrics in the result line, want %d; attempted %d",
					name, trace, len(line.Metrics), len(want), line.Attempted)
			}
		}
	}
}

// TestColdCrowdRepeats checks that the cold-crowd per-layer counts repeat
// exactly for a seed: two traced runs see the same stage shares, searches
// per request and crowd answers per task.
func TestColdCrowdRepeats(t *testing.T) {
	counts := func() map[string]float64 {
		o := options{
			workload: "cold-crowd", seed: 3, seconds: 30, trace: true, small: true,
			setups: 1, maxReqs: 60, sample: 30, scratch: t.TempDir(),
		}
		res, err := runColdCrowd(o)
		if err != nil {
			t.Fatal(err)
		}
		out := map[string]float64{}
		for _, m := range res.layers {
			if strings.HasPrefix(m.name, "core.stage.") || m.name == "routing.searches_per_req" || m.name == "crowd.answers_per_task" {
				out[m.name] = m.value
			}
		}
		return out
	}
	a, b := counts(), counts()
	if len(a) != 7 {
		t.Fatalf("found %d of the 7 counts: %v", len(a), a)
	}
	for k, v := range a {
		if b[k] != v {
			t.Errorf("%s: %v on one run, %v on another", k, v, b[k])
		}
	}
}
