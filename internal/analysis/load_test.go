package analysis_test

import (
	"go/build"
	"go/types"
	"strings"
	"testing"
	"time"

	"crowdplanner/internal/analysis"
)

// TestLoaderLeavesBuildContextAlone pins that loading changes no process
// state: the standard library comes from export data, so nothing has to
// steer go/build's file selection.
func TestLoaderLeavesBuildContextAlone(t *testing.T) {
	saved := build.Default.CgoEnabled
	defer func() { build.Default.CgoEnabled = saved }()
	for _, cgo := range []bool{true, false} {
		build.Default.CgoEnabled = cgo
		loader := analysis.NewLoader("../..")
		if cgo {
			if _, _, err := loader.Load("./internal/geo"); err != nil {
				t.Fatal(err)
			}
		}
		if build.Default.CgoEnabled != cgo {
			t.Errorf("build.Default.CgoEnabled = %v after loading, want %v", build.Default.CgoEnabled, cgo)
		}
	}
}

// TestLoadReturnsMatchedPackagesSharingOneImporter pins two loader
// contracts: only the packages the patterns name are returned (core's and
// server's module dependencies are checked, not analyzed), and every package
// resolves a standard-library object to the same types.Object, the identity
// the call graph keys on.
func TestLoadReturnsMatchedPackagesSharingOneImporter(t *testing.T) {
	loader := analysis.NewLoader("../..")
	pkgs, loadErrs, err := loader.Load("./internal/core", "./internal/server")
	if err != nil || len(loadErrs) > 0 {
		t.Fatalf("Load: err %v, load errors %v", err, loadErrs)
	}
	var paths []string
	for _, p := range pkgs {
		paths = append(paths, p.Path)
	}
	if got := strings.Join(paths, " "); got != "crowdplanner/internal/core crowdplanner/internal/server" {
		t.Fatalf("Load returned %q, want exactly core and server", got)
	}
	core, server := pkgs[0].Types, pkgs[1].Types
	if imported := importOf(t, server, core.Path()); imported != core {
		t.Errorf("server imports a second copy of %s", core.Path())
	}
	ctxCore := importOf(t, core, "context").Scope().Lookup("Context")
	ctxServer := importOf(t, server, "context").Scope().Lookup("Context")
	if ctxCore == nil || ctxCore != ctxServer {
		t.Errorf("context.Context resolves to %p from core and %p from server, want one object", ctxCore, ctxServer)
	}
}

// importOf returns the package pkg imports under path.
func importOf(t *testing.T, pkg *types.Package, path string) *types.Package {
	t.Helper()
	for _, imp := range pkg.Imports() {
		if imp.Path() == path {
			return imp
		}
	}
	t.Fatalf("%s does not import %s", pkg.Path(), path)
	return nil
}

// TestLoadKeepsPartialLoads checks that a pattern go list cannot resolve is
// one LoadError while the rest of the patterns still load.
func TestLoadKeepsPartialLoads(t *testing.T) {
	loader := analysis.NewLoader("../..")
	pkgs, loadErrs, err := loader.Load("./internal/geo", "./nonexistent")
	if err != nil {
		t.Fatal(err)
	}
	if len(pkgs) != 1 || pkgs[0].Path != "crowdplanner/internal/geo" {
		t.Errorf("packages = %v, want only internal/geo", pkgs)
	}
	if len(loadErrs) != 1 || !strings.Contains(loadErrs[0].Path, "nonexistent") {
		t.Errorf("load errors = %v, want one for ./nonexistent", loadErrs)
	}
}

// TestFixtureImportCycleIsAnError checks that two fixtures importing each
// other fail to load instead of waiting on each other.
func TestFixtureImportCycleIsAnError(t *testing.T) {
	loader := analysis.NewLoader("")
	loader.RegisterFixture("crowdplanner/internal/fix/cyclea", "testdata/mod/cycle/cyclea")
	loader.RegisterFixture("crowdplanner/internal/fix/cycleb", "testdata/mod/cycle/cycleb")
	done := make(chan error, 1)
	go func() {
		_, err := loader.LoadDir("testdata/mod/cycle/cyclea", "crowdplanner/internal/fix/cyclea")
		done <- err
	}()
	select {
	case err := <-done:
		if err == nil || !strings.Contains(err.Error(), "import cycle") {
			t.Errorf("LoadDir = %v, want an import cycle error", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("LoadDir did not return: the fixture cycle hangs")
	}
}
