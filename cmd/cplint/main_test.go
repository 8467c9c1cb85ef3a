package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// scratchModule writes a throwaway module so exit codes can be asserted
// against trees cplint has an opinion about, without touching the real one.
func scratchModule(t *testing.T, files map[string]string) string {
	t.Helper()
	dir := t.TempDir()
	files["go.mod"] = "module scratch\n\ngo 1.24\n"
	for name, src := range files {
		path := filepath.Join(dir, name)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dir
}

const cleanSrc = `package scratch

func Fine(n int) int { return n + 1 }
`

const sentinelViolation = `package scratch

import "errors"

var ErrX = errors.New("x")

func Bad(err error) bool { return err == ErrX }
`

func runCplint(t *testing.T, dir string, args ...string) (int, string, string) {
	t.Helper()
	var stdout, stderr bytes.Buffer
	code := run(args, &stdout, &stderr, dir)
	return code, stdout.String(), stderr.String()
}

func TestListExitsZeroAndNamesAllAnalyzers(t *testing.T) {
	code, out, _ := runCplint(t, "", "-list")
	if code != 0 {
		t.Fatalf("-list exit = %d, want 0", code)
	}
	names := []string{
		"cplint", "ctxflow", "detorder", "floatdet", "goroleak", "hotalloc",
		"locks", "sentinel", "wallclock",
	}
	for _, name := range names {
		if !strings.Contains(out, name) {
			t.Errorf("-list output missing analyzer %q:\n%s", name, out)
		}
	}
	if lines := strings.Count(strings.TrimSpace(out), "\n") + 1; lines != len(names) {
		t.Errorf("-list printed %d lines, want %d (one per analyzer):\n%s", lines, len(names), out)
	}
}

func TestExitZeroOnCleanTree(t *testing.T) {
	dir := scratchModule(t, map[string]string{"clean.go": cleanSrc})
	code, out, errOut := runCplint(t, dir, "./...")
	if code != 0 {
		t.Fatalf("exit = %d, want 0\nstdout:\n%s\nstderr:\n%s", code, out, errOut)
	}
}

func TestExitOneOnFindings(t *testing.T) {
	dir := scratchModule(t, map[string]string{"bad.go": sentinelViolation})
	code, out, _ := runCplint(t, dir, "./...")
	if code != 1 {
		t.Fatalf("exit = %d, want 1\nstdout:\n%s", code, out)
	}
	if !strings.Contains(out, "[sentinel]") || !strings.Contains(out, "errors.Is") {
		t.Errorf("finding not reported:\n%s", out)
	}
}

func TestExitTwoOnLoadError(t *testing.T) {
	dir := scratchModule(t, map[string]string{"clean.go": cleanSrc})
	code, _, errOut := runCplint(t, dir, "./nonexistent")
	if code != 2 {
		t.Fatalf("bad pattern: exit = %d, want 2", code)
	}
	if errOut == "" {
		t.Error("load error produced no stderr")
	}

	dir2 := scratchModule(t, map[string]string{"broken.go": "package scratch\n\nfunc Broken() { return undefinedSymbol }\n"})
	code, _, errOut = runCplint(t, dir2, "./...")
	if code != 2 {
		t.Fatalf("type error: exit = %d, want 2 (stderr: %s)", code, errOut)
	}
}

// TestPartialLoadStillAnalyzes pins the robustness contract: one broken
// package must not abort the run. The loadable packages are analyzed, the
// broken one is reported as a finding, and the exit code is 1 (findings),
// not 2 (nothing analyzed).
func TestPartialLoadStillAnalyzes(t *testing.T) {
	dir := scratchModule(t, map[string]string{
		"bad.go":           sentinelViolation,
		"broken/broken.go": "package broken\n\nfunc Broken() int { return undefinedSymbol }\n",
	})
	code, out, _ := runCplint(t, dir, "./...")
	if code != 1 {
		t.Fatalf("exit = %d, want 1\nstdout:\n%s", code, out)
	}
	if !strings.Contains(out, "[sentinel]") {
		t.Errorf("finding from the loadable package missing:\n%s", out)
	}
	if !strings.Contains(out, "scratch/broken failed to load") {
		t.Errorf("broken package not reported:\n%s", out)
	}
}

// TestTimingFlag checks -timing emits the load/analyzer breakdown without
// changing the exit code.
func TestTimingFlag(t *testing.T) {
	dir := scratchModule(t, map[string]string{
		"internal/core/clean.go": "package core\n\nfunc Fine(n int) int { return n + 1 }\n",
	})
	code, out, errOut := runCplint(t, dir, "-timing", "./...")
	if code != 0 {
		t.Fatalf("exit = %d, want 0\nstdout:\n%s\nstderr:\n%s", code, out, errOut)
	}
	for _, want := range []string{"timing: total", "timing: load", "timing: call graph", "timing: analyzers:"} {
		if !strings.Contains(out, want) {
			t.Errorf("-timing output missing %q:\n%s", want, out)
		}
	}

	code, out, _ = runCplint(t, dir, "-timing", "-json", "./...")
	if code != 0 {
		t.Fatalf("-timing -json exit = %d, want 0", code)
	}
	var rep jsonReport
	if err := json.Unmarshal([]byte(out), &rep); err != nil {
		t.Fatalf("-timing -json output is not JSON: %v\n%s", err, out)
	}
	if len(rep.LoadTimings) == 0 || len(rep.AnalyzerTimings) == 0 {
		t.Errorf("timing sections empty: %+v", rep)
	}
}

func TestExitTwoOnUnknownAnalyzer(t *testing.T) {
	code, _, errOut := runCplint(t, "", "-only", "nosuchcheck")
	if code != 2 {
		t.Fatalf("exit = %d, want 2", code)
	}
	if !strings.Contains(errOut, "unknown analyzer") {
		t.Errorf("stderr = %q, want mention of unknown analyzer", errOut)
	}
}

func TestOnlyScopesTheRun(t *testing.T) {
	dir := scratchModule(t, map[string]string{"bad.go": sentinelViolation})
	if code, out, _ := runCplint(t, dir, "-only", "ctxflow", "./..."); code != 0 {
		t.Fatalf("-only ctxflow exit = %d, want 0 (sentinel finding must not run)\n%s", code, out)
	}
	if code, _, _ := runCplint(t, dir, "-only", "sentinel", "./..."); code != 1 {
		t.Fatalf("-only sentinel exit = %d, want 1", code)
	}
}

func TestJSONOutput(t *testing.T) {
	dir := scratchModule(t, map[string]string{"bad.go": sentinelViolation})
	code, out, _ := runCplint(t, dir, "-json", "./...")
	if code != 1 {
		t.Fatalf("exit = %d, want 1", code)
	}
	var rep jsonReport
	if err := json.Unmarshal([]byte(out), &rep); err != nil {
		t.Fatalf("-json output is not JSON: %v\n%s", err, out)
	}
	if len(rep.Findings) != 1 {
		t.Fatalf("findings = %d, want 1: %+v", len(rep.Findings), rep.Findings)
	}
	f := rep.Findings[0]
	if f.Analyzer != "sentinel" || f.File != "bad.go" || f.Line <= 0 || f.Col <= 0 {
		t.Errorf("unexpected finding: %+v", f)
	}
	if rep.Packages != 1 {
		t.Errorf("packages = %d, want 1", rep.Packages)
	}
}

// TestSuppressionRoundTrip pins the end-to-end annotation flow the repo
// relies on: a justified suppression silences the finding (and is counted),
// a reasonless one fails the run.
func TestSuppressionRoundTrip(t *testing.T) {
	justified := strings.Replace(sentinelViolation,
		"return err == ErrX",
		"//cplint:ignore sentinel -- test: identity is the contract here\n\treturn err == ErrX", 1)
	dir := scratchModule(t, map[string]string{"bad.go": justified})
	code, out, _ := runCplint(t, dir, "-json", "./...")
	if code != 0 {
		t.Fatalf("justified suppression: exit = %d, want 0\n%s", code, out)
	}
	var rep jsonReport
	if err := json.Unmarshal([]byte(out), &rep); err != nil {
		t.Fatal(err)
	}
	if rep.Suppressed != 1 {
		t.Errorf("suppressed = %d, want 1", rep.Suppressed)
	}

	reasonless := strings.Replace(sentinelViolation,
		"return err == ErrX",
		"//cplint:ignore sentinel\n\treturn err == ErrX", 1)
	dir2 := scratchModule(t, map[string]string{"bad.go": reasonless})
	code, out, _ = runCplint(t, dir2, "./...")
	if code != 1 {
		t.Fatalf("reasonless suppression: exit = %d, want 1\n%s", code, out)
	}
	if !strings.Contains(out, "requires a written justification") {
		t.Errorf("missing-reason diagnostic absent:\n%s", out)
	}
}
