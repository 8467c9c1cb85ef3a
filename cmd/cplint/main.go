// Command cplint runs CrowdPlanner's project-invariant static-analysis
// suite (internal/analysis) over the module: determinism of map iteration
// and of floating-point folds, the no-I/O-under-lock WAL discipline,
// lock-ordering deadlock freedom, machine-checked //cplint:guardedby field
// contracts, goroutine termination signals, allocation-free hot paths,
// context propagation, wall-clock and global-RNG hygiene, and errors.Is
// classification of sentinels.
//
// Usage:
//
//	go run ./cmd/cplint [-json] [-only a,b] [-list] [-timing] [packages...]
//
// Packages default to ./... . Exit codes: 0 clean, 1 findings (including
// packages that failed to load while others were analyzed), 2 usage error or
// nothing could be analyzed at all — so CI can distinguish "violations" from
// "could not analyze". A package that fails to parse or type-check is
// reported as a finding and the rest of the tree is still checked.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"

	"crowdplanner/internal/analysis"
	"crowdplanner/internal/analysis/analyzers"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr, ""))
}

// jsonFinding is the machine-readable diagnostic shape (-json).
type jsonFinding struct {
	Analyzer string `json:"analyzer"`
	File     string `json:"file"`
	Line     int    `json:"line"`
	Col      int    `json:"col"`
	Message  string `json:"message"`
}

// jsonTiming mirrors one -timing line in the JSON report.
type jsonTiming struct {
	Name string `json:"name"`
	Ms   int64  `json:"ms"`
}

// jsonReport is the top-level -json document.
type jsonReport struct {
	Findings   []jsonFinding `json:"findings"`
	Suppressed int           `json:"suppressed"`
	Packages   int           `json:"packages"`
	// Timing sections are present only under -timing.
	LoadTimings     []jsonTiming `json:"load_timings,omitempty"`
	AnalyzerTimings []jsonTiming `json:"analyzer_timings,omitempty"`
	CallGraphMs     int64        `json:"callgraph_ms,omitempty"`
	TotalMs         int64        `json:"total_ms,omitempty"`
}

// run is the testable entry point; dir overrides the working directory for
// package loading ("" = process cwd).
func run(args []string, stdout, stderr io.Writer, dir string) int {
	start := time.Now()
	fs := flag.NewFlagSet("cplint", flag.ContinueOnError)
	fs.SetOutput(stderr)
	jsonOut := fs.Bool("json", false, "emit findings as JSON on stdout")
	list := fs.Bool("list", false, "list available analyzers and exit")
	only := fs.String("only", "", "comma-separated subset of analyzers to run")
	timing := fs.Bool("timing", false, "report per-package load and per-analyzer wall times")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *list {
		for _, a := range analyzers.All() {
			fmt.Fprintf(stdout, "%-12s %s\n", a.Name, a.Doc)
		}
		return 0
	}
	selected, err := analyzers.Select(*only)
	if err != nil {
		fmt.Fprintln(stderr, "cplint:", err)
		return 2
	}
	patterns := fs.Args()
	loader := analysis.NewLoader(dir)
	pkgs, loadErrs, err := loader.Load(patterns...)
	if err != nil {
		fmt.Fprintln(stderr, "cplint: load:", err)
		return 2
	}
	if len(pkgs) == 0 {
		// Nothing was analyzable: that is an environment problem, not a
		// finding. Surface every load failure and refuse the green checkmark.
		for _, le := range loadErrs {
			fmt.Fprintln(stderr, "cplint: load:", le.Error())
		}
		fmt.Fprintln(stderr, "cplint: no packages could be analyzed")
		return 2
	}
	res := analysis.Run(pkgs, selected, analyzers.Names())

	// Broken packages are findings under the reserved "cplint" name: the run
	// continues, the report names the casualty, and the exit code still
	// demands a fix.
	var diags []analysis.Diagnostic
	for _, le := range loadErrs {
		d := analysis.Diagnostic{
			Analyzer: "cplint",
			Pos:      le.Pos,
			Message:  fmt.Sprintf("package %s failed to load: %v (its findings are unknown this run)", le.Path, le.Err),
		}
		diags = append(diags, d)
	}
	diags = append(diags, res.Diagnostics...)

	if *jsonOut {
		rep := jsonReport{Findings: []jsonFinding{}, Suppressed: res.Suppressed, Packages: len(pkgs)}
		for _, d := range diags {
			rep.Findings = append(rep.Findings, jsonFinding{
				Analyzer: d.Analyzer,
				File:     relPath(dir, d.Pos.Filename),
				Line:     d.Pos.Line,
				Col:      d.Pos.Column,
				Message:  d.Message,
			})
		}
		if *timing {
			for _, t := range loader.Timings() {
				rep.LoadTimings = append(rep.LoadTimings, jsonTiming{Name: t.Name, Ms: t.Duration.Milliseconds()})
			}
			for _, t := range res.AnalyzerTimings {
				rep.AnalyzerTimings = append(rep.AnalyzerTimings, jsonTiming{Name: t.Name, Ms: t.Duration.Milliseconds()})
			}
			rep.CallGraphMs = res.CallGraphTime.Milliseconds()
			rep.TotalMs = time.Since(start).Milliseconds()
		}
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(rep); err != nil {
			fmt.Fprintln(stderr, "cplint:", err)
			return 2
		}
	} else {
		for _, d := range diags {
			d.Pos.Filename = relPath(dir, d.Pos.Filename)
			fmt.Fprintln(stdout, d.String())
		}
		fmt.Fprintf(stdout, "cplint: %d package(s), %d finding(s), %d suppressed\n",
			len(pkgs), len(diags), res.Suppressed)
		if *timing {
			printTimings(stdout, loader.Timings(), res, time.Since(start))
		}
	}
	if len(diags) > 0 {
		return 1
	}
	return 0
}

// printTimings renders the -timing report: slowest package loads first, then
// the call graph and each analyzer in catalogue order.
func printTimings(w io.Writer, loads []analysis.Timing, res analysis.Result, total time.Duration) {
	fmt.Fprintf(w, "timing: total %s\n", total.Round(time.Millisecond))
	fmt.Fprintf(w, "timing: load (slowest first):\n")
	for _, t := range loads {
		fmt.Fprintf(w, "timing:   %-50s %8s\n", t.Name, t.Duration.Round(time.Millisecond))
	}
	fmt.Fprintf(w, "timing: call graph %s\n", res.CallGraphTime.Round(time.Millisecond))
	fmt.Fprintf(w, "timing: analyzers:\n")
	for _, t := range res.AnalyzerTimings {
		fmt.Fprintf(w, "timing:   %-12s %8s\n", t.Name, t.Duration.Round(time.Millisecond))
	}
}

// relPath shortens absolute file names relative to the analysis root for
// readable, stable output.
func relPath(dir, file string) string {
	base := dir
	if base == "" {
		base, _ = os.Getwd()
	}
	if base == "" {
		return file
	}
	if rel, err := filepath.Rel(base, file); err == nil && !filepath.IsAbs(rel) &&
		len(rel) < len(file) {
		return rel
	}
	return file
}
