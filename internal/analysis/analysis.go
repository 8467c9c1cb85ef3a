// Package analysis is CrowdPlanner's project-invariant static-analysis
// framework: the machinery behind cmd/cplint. It type-checks the module with
// nothing but the standard library (one `go list -deps -export` listing,
// stdlib imports from the compiler's export data, module packages through
// go/parser + go/types) and runs a catalogue of project-specific analyzers
// over the typed syntax trees.
//
// The analyzers exist because CrowdPlanner's correctness rests on invariants
// that ordinary tests only sample: bit-identical deterministic replay (sorted
// iteration, seeded RNG), "appends never run under core locks" (the PR 3 WAL
// discipline), full context.Context propagation through /v1, and sentinel
// errors classified via errors.Is. This package makes those reviewer-memory
// rules mechanical.
//
// Findings can be suppressed per line with an annotation that must carry a
// written reason:
//
//	//cplint:ignore <analyzer>[,<analyzer>] -- <reason>
//	//cplint:ordered-irrelevant -- <reason>      (shorthand for detorder)
//
// A suppression comment applies to diagnostics on its own line and on the
// line directly below it, so both trailing and standalone placement work. An
// annotation without a reason is itself reported and suppresses nothing.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"time"
)

// Package is one type-checked package ready for analysis: the parsed files
// (with comments), the go/types results, and identity/location metadata.
type Package struct {
	// Path is the import path the package was checked under. Analyzers use
	// it to scope themselves (e.g. detorder only fires in deterministic
	// packages).
	Path string
	// Dir is the directory the source files were read from.
	Dir   string
	Fset  *token.FileSet
	Files []*ast.File
	Types *types.Package
	Info  *types.Info
}

// Diagnostic is one finding, positioned at a concrete file:line:col.
type Diagnostic struct {
	Analyzer string         `json:"analyzer"`
	Pos      token.Position `json:"-"`
	Message  string         `json:"message"`
}

// String renders the diagnostic in the classic compiler format.
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: [%s] %s", d.Pos, d.Analyzer, d.Message)
}

// Analyzer is one named invariant check. Exactly one of Run and RunModule is
// set (both nil marks a framework-level entry that is documented in -list
// but executed by the framework itself, like the annotation checker). Run
// inspects a single package; RunModule runs once over the whole analyzed
// package set with a shared call graph — the shape interprocedural checks
// (cross-package lock discipline, goroutine lifetimes) need. Neither may
// retain its pass.
type Analyzer struct {
	Name string
	// Doc is a one-line description shown by `cplint -list`.
	Doc       string
	Run       func(*Pass)
	RunModule func(*ModulePass)
}

// Pass carries one (analyzer, package) execution.
type Pass struct {
	Analyzer *Analyzer
	Pkg      *Package
	report   func(Diagnostic)
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.report(Diagnostic{
		Analyzer: p.Analyzer.Name,
		Pos:      p.Pkg.Fset.Position(pos),
		Message:  fmt.Sprintf(format, args...),
	})
}

// ModulePass carries one (analyzer, module) execution: every analyzed
// package plus the call graph built over them.
type ModulePass struct {
	Analyzer *Analyzer
	Pkgs     []*Package
	Graph    *CallGraph
	fset     *token.FileSet
	report   func(Diagnostic)
}

// Reportf records a finding at pos.
func (p *ModulePass) Reportf(pos token.Pos, format string, args ...any) {
	p.report(Diagnostic{
		Analyzer: p.Analyzer.Name,
		Pos:      p.fset.Position(pos),
		Message:  fmt.Sprintf(format, args...),
	})
}

// Position resolves pos against the shared file set.
func (p *ModulePass) Position(pos token.Pos) token.Position { return p.fset.Position(pos) }

// Result is the outcome of running analyzers over packages.
type Result struct {
	// Diagnostics holds the unsuppressed findings, sorted by position then
	// analyzer name, with exact duplicates removed.
	Diagnostics []Diagnostic
	// Suppressed counts findings silenced by well-formed annotations.
	Suppressed int
	// AnalyzerTimings reports per-analyzer wall time (summed over packages
	// for per-package analyzers), in catalogue order. Surfaced by -timing.
	AnalyzerTimings []Timing
	// CallGraphTime is the time spent building the shared call graph, zero
	// when no module analyzer ran.
	CallGraphTime time.Duration
}

// Timing is one named duration for the -timing report.
type Timing struct {
	Name     string        `json:"name"`
	Duration time.Duration `json:"duration"`
}

// Run executes every analyzer over every package, applies the per-line
// suppression annotations, and returns the surviving findings. Module
// analyzers run once over the whole set, sharing one call graph (built only
// if some selected analyzer needs it). known lists every analyzer name the
// suppression vocabulary accepts — pass the full registry even when only a
// subset runs, so `cplint -only wallclock` does not misreport annotations
// that reference other analyzers.
func Run(pkgs []*Package, analyzers []*Analyzer, known []string) Result {
	var diags []Diagnostic
	report := func(d Diagnostic) { diags = append(diags, d) }

	var res Result
	var graph *CallGraph
	for _, a := range analyzers {
		if a.RunModule != nil && graph == nil {
			start := time.Now()
			graph = BuildCallGraph(pkgs)
			res.CallGraphTime = time.Since(start)
		}
	}
	var fset *token.FileSet
	if len(pkgs) > 0 {
		fset = pkgs[0].Fset
	}
	for _, a := range analyzers {
		start := time.Now()
		switch {
		case a.RunModule != nil:
			a.RunModule(&ModulePass{Analyzer: a, Pkgs: pkgs, Graph: graph, fset: fset, report: report})
		case a.Run != nil:
			for _, pkg := range pkgs {
				a.Run(&Pass{Analyzer: a, Pkg: pkg, report: report})
			}
		}
		res.AnalyzerTimings = append(res.AnalyzerTimings, Timing{Name: a.Name, Duration: time.Since(start)})
	}
	sup := applySuppressions(diags, pkgs, known)
	res.Diagnostics, res.Suppressed = sup.Diagnostics, sup.Suppressed
	sort.Slice(res.Diagnostics, func(i, j int) bool {
		a, b := res.Diagnostics[i], res.Diagnostics[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		if a.Analyzer != b.Analyzer {
			return a.Analyzer < b.Analyzer
		}
		return a.Message < b.Message
	})
	res.Diagnostics = dedupe(res.Diagnostics)
	return res
}

// dedupe drops adjacent identical findings from a sorted slice. Two lock
// regions over the same receiver, say, may both cover one I/O call; the user
// needs the finding once.
func dedupe(ds []Diagnostic) []Diagnostic {
	out := ds[:0]
	for i, d := range ds {
		if i > 0 && d == ds[i-1] {
			continue
		}
		out = append(out, d)
	}
	return out
}
