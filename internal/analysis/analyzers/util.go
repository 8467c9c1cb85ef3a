// Package analyzers holds cplint's catalogue of project-specific checks.
// Each analyzer mechanizes one invariant an earlier PR established by hand:
//
//	detorder    — sorted iteration in deterministic packages (PR 1/PR 4)
//	locks       — the serving core's lock contracts on one held-region
//	              model: no storage/file/network I/O reachable under a
//	              mutex, an acyclic acquisition order (DESIGN §6, §8), and
//	              //cplint:guardedby fields accessed only under their
//	              mutex, with held-on-entry inference over the call graph
//	ctxflow     — context.Context propagation through request paths (PR 2)
//	wallclock   — no wall clock / global RNG in deterministic packages (PR 1)
//	sentinel    — sentinel errors compared with errors.Is, not == (PR 2)
//	goroleak    — goroutines outside main must observe a termination signal
//	hotalloc    — //cplint:hotpath functions stay allocation-free (PR 5)
//	floatdet    — float folds in deterministic packages not fed by map or
//	              channel order, nor merged across goroutines
//	cplint      — well-formedness of the annotations themselves (framework)
//
// locks, goroleak, hotalloc, and floatdet run once per module over the
// shared static call graph (see analysis.CallGraph) instead of once per
// package; locks and floatdet add the flow-insensitive def-use chains of
// analysis/dataflow.go.
package analyzers

import (
	"go/ast"
	"go/types"
	"strings"
)

// deterministicPkgs names the internal packages whose behavior must replay
// bit-identically from (seed, event log): everything on the simulation,
// mining, and persistence paths. The set is matched against the first path
// segment after "internal/", so fixture packages checked under e.g.
// "crowdplanner/internal/truth/fixture" scope the same way the real tree
// does, and store subpackages (diskstore, faultstore) inherit store's rules.
var deterministicPkgs = map[string]bool{
	"core":     true,
	"routing":  true,
	"traj":     true,
	"popular":  true,
	"truth":    true,
	"task":     true,
	"worker":   true,
	"landmark": true,
	"crowd":    true,
	"store":    true,
}

// internalSegment extracts the package-family segment after "internal/"
// from an import path, or "" if the path has no internal element.
func internalSegment(path string) string {
	const marker = "internal/"
	i := strings.Index(path, marker)
	if i < 0 {
		return ""
	}
	rest := path[i+len(marker):]
	if j := strings.IndexByte(rest, '/'); j >= 0 {
		rest = rest[:j]
	}
	return rest
}

// isDeterministic reports whether the import path belongs to the
// deterministic-replay family.
func isDeterministic(path string) bool {
	return deterministicPkgs[internalSegment(path)]
}

// calleeFunc resolves the function or method a call expression invokes,
// following embedded-field method selections. Returns nil for calls through
// function values, type conversions, and builtins.
func calleeFunc(info *types.Info, call *ast.CallExpr) *types.Func {
	switch fn := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		if f, ok := info.Uses[fn].(*types.Func); ok {
			return f
		}
	case *ast.SelectorExpr:
		if sel, ok := info.Selections[fn]; ok {
			if f, ok := sel.Obj().(*types.Func); ok {
				return f
			}
			return nil
		}
		// Package-qualified call (pkg.Func).
		if f, ok := info.Uses[fn.Sel].(*types.Func); ok {
			return f
		}
	}
	return nil
}

// isPkgFunc reports whether f is a package-level function of pkgPath with
// one of the given names.
func isPkgFunc(f *types.Func, pkgPath string, names ...string) bool {
	if f == nil || f.Pkg() == nil || f.Pkg().Path() != pkgPath {
		return false
	}
	if sig, ok := f.Type().(*types.Signature); !ok || sig.Recv() != nil {
		return false
	}
	for _, n := range names {
		if f.Name() == n {
			return true
		}
	}
	return false
}

// isMethodOn reports whether f is a method named one of names declared on
// (a pointer to) type pkgPath.typeName.
func isMethodOn(f *types.Func, pkgPath, typeName string, names ...string) bool {
	if f == nil || f.Pkg() == nil || f.Pkg().Path() != pkgPath {
		return false
	}
	sig, ok := f.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return false
	}
	rt := sig.Recv().Type()
	if p, ok := rt.(*types.Pointer); ok {
		rt = p.Elem()
	}
	named, ok := rt.(*types.Named)
	if !ok || named.Obj().Name() != typeName {
		return false
	}
	for _, n := range names {
		if f.Name() == n {
			return true
		}
	}
	return false
}

// isNamedType reports whether t (after pointer indirection) is the named
// type pkgPath.name.
func isNamedType(t types.Type, pkgPath, name string) bool {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj != nil && obj.Pkg() != nil && obj.Pkg().Path() == pkgPath && obj.Name() == name
}

// enclosingFuncs returns the file's top-level function declarations; used to
// scope per-function searches.
func enclosingFuncs(file *ast.File) []*ast.FuncDecl {
	var out []*ast.FuncDecl
	for _, d := range file.Decls {
		if fd, ok := d.(*ast.FuncDecl); ok && fd.Body != nil {
			out = append(out, fd)
		}
	}
	return out
}

// exprString renders a (small) expression for diagnostics and for matching
// lock receivers across Lock/Unlock call sites.
func exprString(e ast.Expr) string {
	return types.ExprString(e)
}
