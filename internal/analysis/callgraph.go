package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// This file is the interprocedural layer: a module-wide static call graph
// over the type-checked package set, with reachability and path-reporting
// utilities, and the reverse edges (Callers) that held-on-entry inference
// walks. Module-level analyzers (locks, goroleak, hotalloc, floatdet) use it
// to prove cross-package invariants a per-package pass cannot see — a
// mutex-held region in core that reaches a WAL append three packages away, a
// lock-order cycle split across files, a goroutine whose cancellation signal
// is observed only inside a helper package.
//
// Resolution model. Edges exist for statically resolvable calls only:
// package-level functions, and method calls whose receiver's static type is
// concrete (go/types resolves those to the implementing method, which is the
// devirtualization "where the concrete type is locally evident"). Calls
// through interface values and function values get conservative unknown-
// callee sites (Dynamic): the graph records that *something* is called there
// but refuses to guess what. Analyzers choose per invariant whether an
// unknown callee is safe (locks: not expanded, documented gap) or a
// finding (goroleak: an unprovable goroutine is a leak until shown
// otherwise). Generic functions are keyed by their origin object, so calls
// to different instantiations meet at one node.

// CallSite is one call expression inside a declared function.
type CallSite struct {
	// Callee is the resolved target, nil for calls through function values.
	// For interface-dispatch sites it is the interface method (useful for
	// naming the site), with Dynamic set.
	Callee *types.Func
	Call   *ast.CallExpr
	// Dynamic marks sites the graph cannot resolve to one implementation:
	// interface dispatch and function-value calls.
	Dynamic bool
	// InLiteral marks sites textually inside a nested function literal: they
	// do not execute when the enclosing declaration runs, only when (if
	// ever) the literal is invoked.
	InLiteral bool
	// InDefer marks sites whose execution is deferred to function exit.
	InDefer bool
}

// CallNode is one declared function or method of an analyzed package.
type CallNode struct {
	Func *types.Func
	Decl *ast.FuncDecl
	Pkg  *Package
	// Out lists the node's call sites in source order, nested literals
	// included (marked InLiteral).
	Out []CallSite
}

// CallGraph is the module-wide static call graph over a set of analyzed
// packages. Nodes exist for every function declaration in the set; callees
// living outside the set (stdlib, unanalyzed packages) appear only as
// CallSite.Callee objects with no node of their own.
type CallGraph struct {
	nodes map[*types.Func]*CallNode
	// order holds the nodes sorted by declaration position, the iteration
	// order every graph algorithm uses so results are deterministic.
	order []*CallNode
	// callers is the reverse adjacency: for each node, the call sites that
	// target it (caller resolved via site bookkeeping below).
	callers map[*types.Func][]Caller
}

// Caller is one reverse edge: Func invokes the target at Site.
type Caller struct {
	Func *types.Func
	Site CallSite
}

// BuildCallGraph constructs the call graph for the given packages. The
// packages must come from one Loader so that types.Func objects are shared
// across package boundaries (an import resolves to the already-checked
// package object, not a reparse).
func BuildCallGraph(pkgs []*Package) *CallGraph {
	g := &CallGraph{
		nodes:   make(map[*types.Func]*CallNode),
		callers: make(map[*types.Func][]Caller),
	}
	for _, pkg := range pkgs {
		for _, file := range pkg.Files {
			for _, decl := range file.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				obj, ok := pkg.Info.Defs[fd.Name].(*types.Func)
				if !ok {
					continue
				}
				obj = origin(obj)
				node := &CallNode{Func: obj, Decl: fd, Pkg: pkg}
				collectSites(pkg.Info, fd.Body, node)
				g.nodes[obj] = node
				g.order = append(g.order, node)
			}
		}
	}
	sort.Slice(g.order, func(i, j int) bool {
		return g.order[i].Decl.Pos() < g.order[j].Decl.Pos()
	})
	for _, n := range g.order {
		for _, site := range n.Out {
			if site.Callee == nil || site.Dynamic || site.InLiteral {
				continue
			}
			if _, ok := g.nodes[site.Callee]; ok {
				g.callers[site.Callee] = append(g.callers[site.Callee],
					Caller{Func: n.Func, Site: site})
			}
		}
	}
	return g
}

// collectSites walks body recording every call expression, tracking literal
// nesting and defer context.
func collectSites(info *types.Info, body ast.Node, node *CallNode) {
	var walk func(n ast.Node, inLit, inDefer bool)
	walk = func(root ast.Node, inLit, inDefer bool) {
		ast.Inspect(root, func(n ast.Node) bool {
			switch x := n.(type) {
			case *ast.FuncLit:
				walk(x.Body, true, false)
				return false
			case *ast.DeferStmt:
				walk(x.Call, inLit, true)
				return false
			case *ast.GoStmt:
				// The spawned call itself runs on another goroutine; its
				// arguments evaluate here. Record the call site normally —
				// analyzers that care about go statements walk the AST.
				return true
			case *ast.CallExpr:
				site := resolveSite(info, x)
				site.InLiteral = inLit
				site.InDefer = inDefer
				node.Out = append(node.Out, site)
				return true
			}
			return true
		})
	}
	walk(body, false, false)
}

// resolveSite classifies one call expression: static callee, interface
// dispatch, or function value. Type conversions and builtins yield a
// non-dynamic site with a nil callee (they call nothing).
func resolveSite(info *types.Info, call *ast.CallExpr) CallSite {
	site := CallSite{Call: call}
	switch fn := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		switch obj := info.Uses[fn].(type) {
		case *types.Func:
			site.Callee = origin(obj)
		case *types.Var:
			site.Dynamic = true // call through a function-typed variable
		case *types.TypeName, *types.Builtin, nil:
			// conversion or builtin: no callee
		default:
			site.Dynamic = true
		}
	case *ast.SelectorExpr:
		if sel, ok := info.Selections[fn]; ok {
			switch obj := sel.Obj().(type) {
			case *types.Func:
				site.Callee = origin(obj)
				if types.IsInterface(sel.Recv()) {
					site.Dynamic = true // interface dispatch: callee unknown
				}
			case *types.Var:
				site.Dynamic = true // function-typed field
			}
			return site
		}
		// Package-qualified reference (pkg.Func, pkg.Var, pkg.Type).
		switch obj := info.Uses[fn.Sel].(type) {
		case *types.Func:
			site.Callee = origin(obj)
		case *types.Var:
			site.Dynamic = true
		}
	case *ast.FuncLit:
		// Immediately-invoked literal: its body was collected as InLiteral
		// sites; the invocation itself resolves to nothing nameable.
		site.Dynamic = true
	default:
		site.Dynamic = true
	}
	return site
}

// origin maps an instantiated generic function or method back to its
// declaration object, the node key. Safe on nil.
func origin(f *types.Func) *types.Func {
	if f == nil {
		return nil
	}
	if o := f.Origin(); o != nil {
		return o
	}
	return f
}

// Node returns the graph node for f (following generic origins), or nil when
// f is not declared in the analyzed set.
func (g *CallGraph) Node(f *types.Func) *CallNode {
	if f == nil {
		return nil
	}
	return g.nodes[origin(f)]
}

// Nodes returns every node in deterministic (declaration position) order.
func (g *CallGraph) Nodes() []*CallNode { return g.order }

// Callers returns the statically resolved call sites outside nested function
// literals that target f, in declaration order of the caller, then source
// order.
func (g *CallGraph) Callers(f *types.Func) []Caller { return g.callers[origin(f)] }

// FuncDisplay renders a function for call-chain output: "core.Recommend",
// "diskstore.Store.append", "traj.IngestTrips".
func FuncDisplay(f *types.Func) string {
	if f == nil {
		return "?"
	}
	name := f.Name()
	if sig, ok := f.Type().(*types.Signature); ok && sig.Recv() != nil {
		rt := sig.Recv().Type()
		if p, ok := rt.(*types.Pointer); ok {
			rt = p.Elem()
		}
		if named, ok := rt.(*types.Named); ok {
			name = named.Obj().Name() + "." + name
		}
	}
	if f.Pkg() != nil {
		name = f.Pkg().Name() + "." + name
	}
	return name
}

// reachEntry records how one function reaches a target: the description of
// the ultimate hit and the next call site on a shortest chain toward it.
type reachEntry struct {
	desc string
	next CallSite // zero Call for direct hits (the hit is in this function)
	dist int
}

// ReachSet answers "can this function reach a flagged call site, and how".
// Build one with CallGraph.Reach.
type ReachSet struct {
	g       *CallGraph
	entries map[*types.Func]reachEntry
}

// Reach computes, for every function in the graph, whether it can reach a
// call site that direct classifies as a hit (non-empty description), walking
// statically resolved calls only. Sites inside nested function literals are
// not traversed (they do not run with the enclosing function), and functions
// rejected by through are treated as opaque: their interiors are not
// expanded, though call sites targeting them can still be direct hits.
// through == nil means traverse everything. The walk is a breadth-first
// search from the direct hits over reverse edges, so each reaching function
// records a minimal call chain; all tie-breaks follow declaration order,
// keeping reported chains deterministic.
func (g *CallGraph) Reach(direct func(CallSite) string, through func(*types.Func) bool) *ReachSet {
	rs := &ReachSet{g: g, entries: make(map[*types.Func]reachEntry)}
	traverse := func(f *types.Func) bool { return through == nil || through(f) }

	// Seed: functions containing a direct hit (first in source order wins).
	var frontier []*types.Func
	for _, n := range g.order {
		if !traverse(n.Func) {
			continue
		}
		for _, site := range n.Out {
			if site.InLiteral {
				continue
			}
			if desc := direct(site); desc != "" {
				rs.entries[n.Func] = reachEntry{desc: desc, next: site}
				frontier = append(frontier, n.Func)
				break
			}
		}
	}
	// BFS over reverse edges, level by level.
	for dist := 1; len(frontier) > 0; dist++ {
		var next []*types.Func
		for _, f := range frontier {
			for _, ref := range g.callers[f] {
				if _, seen := rs.entries[ref.Func]; seen || !traverse(ref.Func) {
					continue
				}
				rs.entries[ref.Func] = reachEntry{
					desc: rs.entries[f].desc, next: ref.Site, dist: dist,
				}
				next = append(next, ref.Func)
			}
		}
		// The per-level order influences nothing (every entry at one level
		// has the same distance, and within a level callers are discovered
		// from deterministically ordered seeds), but sort anyway so any
		// future tie-break stays stable.
		sort.Slice(next, func(i, j int) bool { return posOf(g, next[i]) < posOf(g, next[j]) })
		frontier = next
	}
	return rs
}

func posOf(g *CallGraph, f *types.Func) token.Pos {
	if n := g.nodes[f]; n != nil {
		return n.Decl.Pos()
	}
	return token.NoPos
}

// Reaches reports whether f can reach a hit, with its description.
func (r *ReachSet) Reaches(f *types.Func) (string, bool) {
	e, ok := r.entries[origin(f)]
	return e.desc, ok
}

// Chain renders the full call chain from f to the hit it reaches:
// "core.commitTruth → traj.IngestTrips → store append/IO (Log.Append)".
// Returns "" when f reaches nothing.
func (r *ReachSet) Chain(f *types.Func) string {
	f = origin(f)
	e, ok := r.entries[f]
	if !ok {
		return ""
	}
	out := FuncDisplay(f)
	for e.next.Call != nil && e.next.Callee != nil {
		nxt, ok := r.entries[origin(e.next.Callee)]
		if !ok {
			break // next hop is the hit itself (outside the analyzed set)
		}
		out += " → " + FuncDisplay(e.next.Callee)
		e = nxt
	}
	return out + " → " + e.desc
}
