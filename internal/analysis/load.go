package analysis

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/scanner"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"time"
)

// Loader discovers, parses, and type-checks packages of the surrounding
// module in one ordered pass over a `go list -deps -export -e -json`
// listing, which names every package after its dependencies. Standard-library
// packages come from the compiler's export data (the files the listing
// names), read through one gc importer so every package sees the same
// *types.Package for, say, "context"; module packages are parsed with
// go/parser and type-checked from source, in listing order, one at a time.
// Everything is stdlib: the module stays free of external dependencies,
// x/tools included.
//
// A package that fails to parse or type-check does not abort the load: it
// is reported as a LoadError, its dependents fail with their own import
// errors, and everything else is analyzed normally — one syntax error must
// not hide every real finding in the rest of the tree. The listing's -e flag
// carries the same contract to patterns that match nothing.
//
// Test files (*_test.go) are not analyzed: the invariants guard production
// determinism and lock discipline, and tests legitimately use wall clocks,
// throwaway goroutines, and unsorted iteration.
//
// A Loader is not safe for concurrent use.
type Loader struct {
	// Dir is the working directory for `go list`; empty means the process
	// working directory. It must sit inside the module under analysis.
	Dir string

	fset     *token.FileSet
	std      types.Importer      // export-data importer over exports
	exports  map[string]string   // standard-library import path -> export data file
	pkgs     map[string]*Package // import path -> checked module or fixture package
	failed   map[string]error    // import path -> why it could not load
	fixtures map[string]string   // import path -> fixture directory
	checking map[string]bool     // packages being type-checked, for cycle detection
	timings  []Timing            // `go list` and per-package check wall times
}

// LoadError is one package that could not be loaded: a parse failure, a type
// error, a dependency that failed before it, or a pattern `go list` could not
// resolve.
type LoadError struct {
	Path string // import path of the broken package
	Pos  token.Position
	Err  error
}

func (e LoadError) Error() string {
	if e.Pos.IsValid() {
		return fmt.Sprintf("%s: %s: %v", e.Path, e.Pos, e.Err)
	}
	return fmt.Sprintf("%s: %v", e.Path, e.Err)
}

// NewLoader returns a loader rooted at dir ("" = current directory).
func NewLoader(dir string) *Loader {
	l := &Loader{
		Dir:      dir,
		fset:     token.NewFileSet(),
		exports:  make(map[string]string),
		pkgs:     make(map[string]*Package),
		failed:   make(map[string]error),
		fixtures: make(map[string]string),
		checking: make(map[string]bool),
	}
	l.std = importer.ForCompiler(l.fset, "gc", func(path string) (io.ReadCloser, error) {
		file := l.exports[path]
		if file == "" {
			return nil, fmt.Errorf("no export data for %q", path)
		}
		return os.Open(file)
	})
	return l
}

// RegisterFixture maps an import path to a source directory, letting
// testdata fixture packages import each other under scoping paths that are
// invisible to `go list` (the analysistest module harness uses this to build
// multi-package fixture modules).
func (l *Loader) RegisterFixture(asPath, dir string) {
	l.fixtures[asPath] = dir
}

// Timings returns the `go list` and per-package check durations recorded so
// far, sorted by decreasing duration.
func (l *Loader) Timings() []Timing {
	out := append([]Timing(nil), l.timings...)
	sort.SliceStable(out, func(i, j int) bool { return out[i].Duration > out[j].Duration })
	return out
}

// listPkg is the subset of `go list -json` output the loader consumes.
type listPkg struct {
	ImportPath string
	Dir        string
	GoFiles    []string
	Export     string
	Standard   bool
	DepOnly    bool
	Error      *struct{ Err string }
}

// list runs `go list -deps -export -e -json` over the patterns and walks the
// listing in its order, dependencies first: a standard-library package
// records its export data file, a module package is checked from source, and
// a package `go list` could not load records its error. It returns the
// packages the patterns matched themselves (not DepOnly).
func (l *Loader) list(patterns ...string) ([]*listPkg, error) {
	start := time.Now()
	cmd := exec.Command("go", append([]string{"list", "-deps", "-export", "-e", "-json"}, patterns...)...)
	cmd.Dir = l.Dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	l.timings = append(l.timings, Timing{Name: "go list", Duration: time.Since(start)})
	if err != nil {
		msg := strings.TrimSpace(stderr.String())
		if msg == "" {
			msg = err.Error()
		}
		return nil, fmt.Errorf("go list %s: %s", strings.Join(patterns, " "), msg)
	}
	var matched []*listPkg
	dec := json.NewDecoder(bytes.NewReader(out))
	for dec.More() {
		p := new(listPkg)
		if err := dec.Decode(p); err != nil {
			return nil, fmt.Errorf("decoding go list output: %w", err)
		}
		switch {
		case p.Standard:
			l.exports[p.ImportPath] = p.Export
		case l.resolvable(p.ImportPath):
			// loaded by an earlier listing, or being checked right now
		case len(p.GoFiles) > 0:
			l.check(p.ImportPath, p.Dir, p.GoFiles)
		case p.Error != nil:
			l.failed[p.ImportPath] = errors.New(p.Error.Err)
		}
		if !p.DepOnly {
			matched = append(matched, p)
		}
	}
	return matched, nil
}

// Load discovers the packages matching the patterns, type-checks them (and
// any module-internal dependencies) in dependency order, and returns the
// ones the patterns matched in import-path order plus a LoadError per
// matched package that failed. The returned error is non-nil only when
// `go list` itself failed and nothing could be attempted.
func (l *Loader) Load(patterns ...string) ([]*Package, []LoadError, error) {
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	matched, err := l.list(patterns...)
	if err != nil {
		return nil, nil, err
	}
	var out []*Package
	var errs []LoadError
	for _, p := range matched {
		switch pkg, err := l.pkgs[p.ImportPath], l.failed[p.ImportPath]; {
		case pkg != nil:
			out = append(out, pkg)
		case err != nil:
			errs = append(errs, loadError(p.ImportPath, err))
		case p.Standard:
			errs = append(errs, LoadError{Path: p.ImportPath,
				Err: errors.New("standard-library package: only module packages are analyzed")})
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Path < out[j].Path })
	sort.Slice(errs, func(i, j int) bool { return errs[i].Path < errs[j].Path })
	return out, errs, nil
}

// loadError shapes a raw check error into a positioned LoadError.
func loadError(path string, err error) LoadError {
	le := LoadError{Path: path, Err: err}
	var sl scanner.ErrorList
	var te types.Error
	switch {
	case errors.As(err, &sl) && len(sl) > 0:
		le.Pos, le.Err = sl[0].Pos, errors.New(sl[0].Msg)
	case errors.As(err, &te):
		le.Pos, le.Err = te.Fset.Position(te.Pos), errors.New(te.Msg)
	}
	return le
}

// LoadDir parses and type-checks the .go files of a single directory under
// the given import path. Registered fixtures it imports are loaded the same
// way; any other import it names that is not loaded yet goes through the
// listing first. The analysistest harness uses it to check testdata fixture
// packages under scoping paths the analyzers react to (fixture directories
// are invisible to `go list ./...`).
func (l *Loader) LoadDir(dir, asPath string) (*Package, error) {
	if pkg := l.pkgs[asPath]; pkg != nil {
		return pkg, nil
	}
	if err := l.failed[asPath]; err != nil {
		return nil, err
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var files []string
	for _, e := range ents {
		if name := e.Name(); strings.HasSuffix(name, ".go") && !e.IsDir() {
			files = append(files, name)
		}
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("no .go files in %s", dir)
	}
	sort.Strings(files)
	return l.check(asPath, dir, files)
}

// check parses and type-checks one package and records the outcome: the
// package, or the reason it failed, plus its wall time. Imports that are
// neither loaded nor fixtures are listed (with their dependencies) in one
// `go list` call before checking starts; a package in Load's own listing
// finds every import already loaded.
func (l *Loader) check(path, dir string, goFiles []string) (pkg *Package, err error) {
	start := time.Now()
	l.checking[path] = true
	defer func() {
		delete(l.checking, path)
		l.timings = append(l.timings, Timing{Name: path, Duration: time.Since(start)})
		if err != nil {
			l.failed[path] = err
		} else {
			l.pkgs[path] = pkg
		}
	}()
	var files []*ast.File
	var unlisted []string
	for _, f := range goFiles {
		af, err := parser.ParseFile(l.fset, filepath.Join(dir, f), nil,
			parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, af)
		for _, spec := range af.Imports {
			imp, _ := strconv.Unquote(spec.Path.Value) // the parser accepted the literal
			if !l.resolvable(imp) {
				unlisted = append(unlisted, imp)
			}
		}
	}
	if len(unlisted) > 0 {
		if _, err := l.list(unlisted...); err != nil {
			return nil, err
		}
	}
	var typeErrs []error
	conf := types.Config{
		Importer: (*loaderImporter)(l),
		Error:    func(err error) { typeErrs = append(typeErrs, err) },
	}
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Implicits:  make(map[ast.Node]types.Object),
		Scopes:     make(map[ast.Node]*types.Scope),
	}
	tpkg, err := conf.Check(path, l.fset, files, info)
	if len(typeErrs) > 0 {
		err = typeErrs[0]
	}
	if err != nil {
		return nil, fmt.Errorf("type-checking %s: %w", path, err)
	}
	return &Package{Path: path, Dir: dir, Fset: l.fset, Files: files, Types: tpkg, Info: info}, nil
}

// resolvable reports whether an import of path can be answered without a
// listing: it is loaded, failed, being checked, a fixture, or has export
// data.
func (l *Loader) resolvable(path string) bool {
	_, std := l.exports[path]
	_, fixture := l.fixtures[path]
	return std || fixture || l.pkgs[path] != nil || l.failed[path] != nil || l.checking[path]
}

// loaderImporter resolves imports during type-checking: checked module and
// fixture packages from the loader, unchecked fixtures by checking them
// first, and standard-library packages from export data.
type loaderImporter Loader

func (li *loaderImporter) Import(path string) (*types.Package, error) {
	l := (*Loader)(li)
	if _, ok := l.exports[path]; ok {
		return l.std.Import(path)
	}
	if l.checking[path] {
		return nil, fmt.Errorf("import cycle through %q", path)
	}
	if dir, ok := l.fixtures[path]; ok {
		pkg, err := l.LoadDir(dir, path)
		if err != nil {
			return nil, err
		}
		return pkg.Types, nil
	}
	if pkg := l.pkgs[path]; pkg != nil {
		return pkg.Types, nil
	}
	if l.failed[path] != nil {
		return nil, fmt.Errorf("import %q: package failed to load", path)
	}
	return nil, fmt.Errorf("import %q: package not found", path)
}
