// Command perfbench is the CrowdPlanner serving benchmark. It builds the
// world cpserver serves by default, drives the HTTP handler in-process with
// closed-loop clients, checks every response, and prints each metric by name
// and unit. The last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end ones; with -trace 1 the run
// installs timing decorators, replays a sample of its requests through the
// layers' public functions and reports the per-layer ledger instead.
//
// Usage (from the repository root; perfbench/run.py builds and runs it):
//
//	perfbench -workload hot-reuse -seed 1 -seconds 20 -trace 0
//
// The exit code is 1 when an output check, the replay check or the
// reconciliation check fails, and 2 on a usage or set-up error.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
	"time"
)

// options is one benchmark invocation.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	small    bool   // core.SmallScenarioConfig instead of the default world (self-test)
	setups   int    // set-ups timed per run; setup_s is their median
	maxReqs  int    // caps the timed phase's primary requests (0: time only)
	sample   int    // requests replayed through the layers in a traced run
	scratch  string // directory for the feed-async store
}

// metric is one named measurement.
type metric struct {
	name  string
	value float64
	unit  string
	n     int // samples behind the value, 0 when not a sample statistic
}

// result is what a workload run reports.
type result struct {
	attempted, failed int
	failures          []string // first few failed checks, for the log
	e2e               []metric // -trace 0: the JSON metrics
	detail            []metric // -trace 0: per-endpoint metrics, printed only
	layers            []metric // -trace 1: the JSON metrics
	world             worldShape
}

// fail records a failed output check.
func (r *result) fail(format string, args ...any) {
	r.failed++
	if len(r.failures) < 10 {
		r.failures = append(r.failures, fmt.Sprintf(format, args...))
	}
}

var workloads = map[string]func(options) (*result, error){
	"hot-reuse":  runHotReuse,
	"cold-crowd": runColdCrowd,
	"feed-async": runFeedAsync,
}

func main() {
	o := options{setups: 5, sample: 200}
	var trace int
	flag.StringVar(&o.workload, "workload", "", "workload: hot-reuse, cold-crowd or feed-async")
	flag.Int64Var(&o.seed, "seed", 1, "workload seed")
	flag.Float64Var(&o.seconds, "seconds", 10, "length of the timed phase in seconds")
	flag.IntVar(&trace, "trace", 0, "1 runs the traced replay and reports per-layer metrics")
	flag.StringVar(&o.scratch, "scratch", ".bench_build/run", "directory for temporary stores")
	flag.Parse()
	o.trace = trace == 1
	run, ok := workloads[o.workload]
	if !ok || (trace != 0 && trace != 1) || o.seconds <= 0 {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments (workload %q, trace %d)\n", o.workload, trace)
		os.Exit(2)
	}
	res, err := run(o)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", o.workload, err)
		os.Exit(2)
	}
	printProvenance(o, res.world)
	if !report(os.Stdout, o, res) {
		os.Exit(1)
	}
}

// report prints every metric by name and unit, then the JSON result line.
// It returns whether the run passed its checks.
func report(w io.Writer, o options, res *result) bool {
	shown := res.e2e
	if o.trace {
		shown = res.layers
	} else {
		shown = append(append([]metric(nil), res.e2e...), res.detail...)
	}
	for _, m := range shown {
		if m.n > 0 {
			fmt.Fprintf(w, "metric %-32s %14.6f %-6s n=%d\n", m.name, m.value, m.unit, m.n)
		} else {
			fmt.Fprintf(w, "metric %-32s %14.6f %s\n", m.name, m.value, m.unit)
		}
	}
	for _, f := range res.failures {
		fmt.Fprintf(w, "check failed: %s\n", f)
	}
	type jm struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := map[string]jm{}
	list := res.e2e
	if o.trace {
		list = res.layers
	}
	for _, m := range list {
		out[m.name] = jm{m.value, m.unit}
	}
	correct := res.failed == 0
	line, _ := json.Marshal(struct {
		Correct   bool          `json:"correct"`
		Attempted int           `json:"attempted"`
		Failed    int           `json:"failed"`
		Metrics   map[string]jm `json:"metrics"`
	}{correct, max(res.attempted, 1), res.failed, out})
	fmt.Fprintln(w, string(line))
	return correct
}

// printProvenance stamps the run with what produced it.
func printProvenance(o options, ws worldShape) {
	commit := os.Getenv("PERFBENCH_COMMIT")
	if commit == "" {
		commit = "unknown"
	}
	p := provenance(commit, o, ws)
	keys := make([]string, 0, len(p))
	for k := range p {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	for _, k := range keys {
		fmt.Fprintf(&b, " %s=%v", k, p[k])
	}
	fmt.Printf("provenance%s\n", b.String())
}

// ms converts a duration to float milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
