package analyzers

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"

	"crowdplanner/internal/analysis"
)

// Mutguard turns the tree's prose lock contracts ("pending is guarded by
// mu") into a machine-checked invariant. A struct field annotated
//
//	//cplint:guardedby <mutex>
//
// may only be read or written while that mutex is held. The mutex spec is a
// sibling field name (`mu`), a same-package `Type.field`, or a package-level
// variable; it must resolve to a sync.Mutex or sync.RWMutex, and the
// canonical identity matches lockorder's mutexKey scheme, so the held-region
// machinery is shared.
//
// Held regions come from two sources. Locally, a region opens at Lock/RLock
// and closes at the matching unlock (deferred unlocks hold to function end —
// scanLockBody/regionEnd, reused from lockappend/lockorder). Indirectly, a
// helper that is only ever called with the mutex held inherits it: the
// held-on-entry set of each function is the intersection, over every static
// call site, of what is held at that site (caller's local regions plus the
// caller's own held-on-entry set), iterated to fixpoint. Call sites inside
// go statements contribute nothing (the goroutine runs after the caller's
// region may have closed), and a function with no analyzed callers — an
// exported entry point — starts with nothing held. Findings in helpers
// include an example lock-free call chain.
//
// Precision rules:
//
//   - writes require the exclusive lock: a write under RLock is a finding
//     (torn readers), a read under either mode passes
//   - accesses to freshly constructed objects (reached from a composite
//     literal or new() in the same function — constructors) are exempt: the
//     object is not shared yet
//   - composite-literal field keys (Store{closed: true}) are initialization,
//     not access
//   - function literals inherit the held set at their definition point
//     (synchronous-call assumption: sort.Slice comparators under a lock),
//     except go-spawned literals, which start empty
//
// Like lockorder, mutex identity aggregates by declared field (every
// core.System.mu is one lock): holding a.mu while touching b.field of
// another instance passes — the standard static-analysis aggregation.
//
// A field whose comment says "guarded by" in prose without carrying the
// directive is itself a finding: the contract exists but is not enforced.
var Mutguard = &analysis.Analyzer{
	Name:      "mutguard",
	Doc:       "//cplint:guardedby fields may only be accessed while the named mutex is held (module-wide, with held-on-entry inference)",
	RunModule: runMutguard,
}

const guardedbyDirective = "cplint:guardedby"

// guardedField is one field carrying a guardedby contract.
type guardedField struct {
	fieldVar *types.Var
	fieldKey string // "pkg.Type.field", for messages
	mutexKey string // canonical identity of the required mutex (mutexKey scheme)
	mutexStr string // the directive's spelling, for messages
}

// heldSet maps canonical mutex keys to whether the hold is exclusive
// (Lock) rather than shared (RLock). A nil heldSet is ⊤ — the optimistic
// fixpoint start, "everything held" — distinct from the empty set.
type heldSet map[string]bool

func intersectHeld(a, b heldSet) heldSet {
	if a == nil {
		return b
	}
	if b == nil {
		return a
	}
	out := make(heldSet)
	for k, ex := range a {
		if bex, ok := b[k]; ok {
			out[k] = ex && bex
		}
	}
	return out
}

func unionHeld(a, b heldSet) heldSet {
	if a == nil || b == nil {
		return nil // ⊤
	}
	out := make(heldSet, len(a)+len(b))
	for k, ex := range a {
		out[k] = ex
	}
	for k, ex := range b {
		out[k] = out[k] || ex
	}
	return out
}

func sameHeld(a, b heldSet) bool {
	if (a == nil) != (b == nil) || len(a) != len(b) {
		return false
	}
	for k, ex := range a {
		if bex, ok := b[k]; !ok || bex != ex {
			return false
		}
	}
	return true
}

func runMutguard(pass *analysis.ModulePass) {
	guarded := collectGuardedFields(pass)
	if len(guarded) == 0 {
		return
	}
	g := pass.Graph

	// goCalls: call expressions that are the subject of a go statement, per
	// function — the call graph records them as plain sites, so spot them on
	// the AST.
	goCalls := make(map[*ast.CallExpr]bool)
	for _, n := range g.Nodes() {
		ast.Inspect(n.Decl.Body, func(node ast.Node) bool {
			if gs, ok := node.(*ast.GoStmt); ok {
				goCalls[gs.Call] = true
			}
			return true
		})
	}

	// Local lock events per function.
	events := make(map[*types.Func][]lockEvent)
	for _, n := range g.Nodes() {
		evs, _ := scanLockBody(n.Pkg.Info, n.Decl.Body)
		events[n.Func] = evs
	}

	// Held-on-entry fixpoint. Start optimistic (⊤ = nil) and shrink: each
	// round recomputes every function's entry set as the intersection over
	// its eligible call sites of (caller local held at site ∪ caller entry).
	// Information propagates at most one call-chain hop per round, so the
	// node count bounds the rounds any stable system needs; the explicit cap
	// guarantees termination even for a pathological oscillation.
	entry := make(map[*types.Func]heldSet)
	for changed, round := true, 0; changed && round <= len(g.Nodes()); round++ {
		changed = false
		contrib := make(map[*types.Func]heldSet)
		seen := make(map[*types.Func]bool)
		for _, n := range g.Nodes() {
			for _, site := range n.Out {
				if site.Callee == nil || site.Dynamic || site.InLiteral {
					continue
				}
				callee := g.Node(site.Callee)
				if callee == nil {
					continue
				}
				var h heldSet
				if goCalls[site.Call] {
					h = heldSet{} // spawned: caller's region may be gone
				} else {
					h = unionHeld(localHeldAt(events[n.Func], site.Call.Pos(), n.Decl.Body.End()), entry[n.Func])
				}
				if !seen[callee.Func] {
					seen[callee.Func] = true
					contrib[callee.Func] = h
				} else {
					contrib[callee.Func] = intersectHeld(contrib[callee.Func], h)
				}
			}
		}
		for _, n := range g.Nodes() {
			var next heldSet
			if seen[n.Func] {
				next = contrib[n.Func]
			} else {
				next = heldSet{} // no analyzed caller: entry point, nothing held
			}
			if next == nil {
				next = heldSet{} // every contribution was ⊤ (cycle): settle empty
			}
			if !sameHeld(entry[n.Func], next) {
				entry[n.Func] = next
				changed = true
			}
		}
	}

	// Reverse edges for chain rendering.
	callers := make(map[*types.Func][]*analysis.CallNode)
	for _, n := range g.Nodes() {
		for _, site := range n.Out {
			if site.Callee == nil || site.Dynamic || site.InLiteral {
				continue
			}
			if g.Node(site.Callee) != nil {
				callers[site.Callee] = append(callers[site.Callee], n)
			}
		}
	}

	// Access pass.
	for _, n := range g.Nodes() {
		checkGuardedAccesses(pass, n, guarded, events[n.Func], entry[n.Func], callers, goCalls)
	}
	reportMisplacedGuardedby(pass)
}

// localHeldAt returns the mutexes locally held at pos: every acquire whose
// region (to its plain release, or to end for deferred releases) spans pos.
func localHeldAt(events []lockEvent, pos, end token.Pos) heldSet {
	h := make(heldSet)
	for _, acq := range events {
		if !acq.acquire || acq.deferred || acq.key == "" {
			continue
		}
		if acq.pos < pos && pos < regionEnd(acq, events, end) {
			h[acq.key] = h[acq.key] || !acq.read
		}
	}
	return h
}

// collectGuardedFields walks every package's struct declarations for
// guardedby directives and "guarded by" prose, reporting malformed
// directives and unenforced prose contracts.
func collectGuardedFields(pass *analysis.ModulePass) map[*types.Var]*guardedField {
	out := make(map[*types.Var]*guardedField)
	for _, pkg := range pass.Pkgs {
		for _, file := range pkg.Files {
			for _, decl := range file.Decls {
				gd, ok := decl.(*ast.GenDecl)
				if !ok || gd.Tok != token.TYPE {
					continue
				}
				for _, spec := range gd.Specs {
					ts, ok := spec.(*ast.TypeSpec)
					if !ok {
						continue
					}
					st, ok := ts.Type.(*ast.StructType)
					if !ok {
						continue
					}
					for _, field := range st.Fields.List {
						collectFieldDirective(pass, pkg, ts, st, field, out)
					}
				}
			}
		}
	}
	return out
}

func collectFieldDirective(pass *analysis.ModulePass, pkg *analysis.Package, ts *ast.TypeSpec, st *ast.StructType, field *ast.Field, out map[*types.Var]*guardedField) {
	spec, dirPos, found := fieldGuardedbySpec(field)
	if !found {
		if pos, prose := fieldGuardedProse(field); prose && len(field.Names) > 0 {
			pass.Reportf(pos,
				"field %s.%s documents a lock contract in prose (\"guarded by\") but carries no //cplint:guardedby directive — convert it so mutguard enforces the contract",
				ts.Name.Name, field.Names[0].Name)
		}
		return
	}
	if len(field.Names) == 0 {
		pass.Reportf(dirPos, "//cplint:guardedby on an embedded field is not supported; name the field")
		return
	}
	if spec == "" {
		pass.Reportf(dirPos, "//cplint:guardedby needs a mutex: '//cplint:guardedby <mutex>' where <mutex> is a sibling field, Type.field, or a package-level variable")
		return
	}
	mkey, ok := resolveMutexSpec(pkg, ts, st, spec)
	if !ok {
		pass.Reportf(dirPos,
			"//cplint:guardedby %s does not resolve to a sync.Mutex or sync.RWMutex (looked for a sibling field of %s, a same-package Type.field, and a package-level variable)",
			spec, ts.Name.Name)
		return
	}
	for _, name := range field.Names {
		v, ok := pkg.Info.Defs[name].(*types.Var)
		if !ok {
			continue
		}
		out[v] = &guardedField{
			fieldVar: v,
			fieldKey: pkg.Types.Name() + "." + ts.Name.Name + "." + name.Name,
			mutexKey: mkey,
			mutexStr: spec,
		}
	}
}

// fieldGuardedbySpec extracts the directive's mutex spec from a field's doc
// or trailing comment. found reports whether the directive is present at all
// (spec may be empty — malformed). Only the first whitespace-separated token
// is the spec; anything after it is free-form prose.
func fieldGuardedbySpec(field *ast.Field) (spec string, pos token.Pos, found bool) {
	for _, cg := range []*ast.CommentGroup{field.Doc, field.Comment} {
		if cg == nil {
			continue
		}
		for _, c := range cg.List {
			text := commentDirectiveText(c)
			if !strings.HasPrefix(text, guardedbyDirective) {
				continue
			}
			rest := strings.TrimPrefix(text, guardedbyDirective)
			if rest != "" && !strings.HasPrefix(rest, " ") {
				continue // some other directive sharing the prefix
			}
			spec, _, _ = strings.Cut(strings.TrimSpace(rest), " ")
			return spec, c.Pos(), true
		}
	}
	return "", token.NoPos, false
}

// commentDirectiveText normalizes one comment to its directive text.
func commentDirectiveText(c *ast.Comment) string {
	text := c.Text
	if strings.HasPrefix(text, "/*") {
		text = strings.TrimSuffix(strings.TrimPrefix(text, "/*"), "*/")
	} else {
		text = strings.TrimPrefix(text, "//")
	}
	return strings.TrimSpace(text)
}

// fieldGuardedProse reports whether the field's comments contain a "guarded
// by" prose contract.
func fieldGuardedProse(field *ast.Field) (token.Pos, bool) {
	for _, cg := range []*ast.CommentGroup{field.Doc, field.Comment} {
		if cg == nil {
			continue
		}
		if strings.Contains(strings.ToLower(cg.Text()), "guarded by") {
			return cg.Pos(), true
		}
	}
	return token.NoPos, false
}

// resolveMutexSpec resolves a directive's mutex spec to a canonical mutex
// key under the same scheme mutexKey uses for lock call sites.
func resolveMutexSpec(pkg *analysis.Package, ts *ast.TypeSpec, st *ast.StructType, spec string) (string, bool) {
	pkgName := pkg.Types.Name()
	if typeName, fieldName, qualified := strings.Cut(spec, "."); qualified {
		obj := pkg.Types.Scope().Lookup(typeName)
		if obj == nil {
			return "", false
		}
		named := namedOf(obj.Type())
		if named == nil {
			return "", false
		}
		stru, ok := named.Underlying().(*types.Struct)
		if !ok {
			return "", false
		}
		for i := 0; i < stru.NumFields(); i++ {
			f := stru.Field(i)
			if f.Name() == fieldName && isMutexVar(f.Type()) {
				return pkgName + "." + typeName + "." + fieldName, true
			}
		}
		return "", false
	}
	// Sibling field of the same struct.
	for _, sib := range st.Fields.List {
		for _, name := range sib.Names {
			if name.Name == spec {
				if v, ok := pkg.Info.Defs[name].(*types.Var); ok && isMutexVar(v.Type()) {
					return pkgName + "." + ts.Name.Name + "." + spec, true
				}
				return "", false
			}
		}
	}
	// Package-level mutex variable.
	if obj := pkg.Types.Scope().Lookup(spec); obj != nil {
		if v, ok := obj.(*types.Var); ok && isMutexVar(v.Type()) {
			return pkgName + "." + spec, true
		}
	}
	return "", false
}

func isMutexVar(t types.Type) bool {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	return ok && isSyncMutexType(named)
}

// guardedAccess is one read or write of a guarded field.
type guardedAccess struct {
	sel   *ast.SelectorExpr
	gf    *guardedField
	write bool
}

// checkGuardedAccesses verifies every guarded-field access in n against the
// held set at that point: local regions plus the function's held-on-entry
// set. Function literals are checked with the held set at their definition
// point (go-spawned literals: nothing).
func checkGuardedAccesses(pass *analysis.ModulePass, n *analysis.CallNode, guarded map[*types.Var]*guardedField, evs []lockEvent, entryHeld heldSet, callers map[*types.Func][]*analysis.CallNode, goCalls map[*ast.CallExpr]bool) {
	info := n.Pkg.Info
	fresh := freshLattice(info, n)
	bodyEnd := n.Decl.Body.End()

	report := func(a guardedAccess, held heldSet) {
		verb := "read"
		if a.write {
			verb = "write to"
		}
		if ex, ok := held[a.gf.mutexKey]; ok {
			if a.write && !ex {
				pass.Reportf(a.sel.Pos(),
					"%s %s while holding %s only for reading (RLock): writes need the exclusive lock — concurrent readers can observe the torn update",
					verb, a.gf.fieldKey, a.gf.mutexStr)
			}
			return
		}
		chain := lockFreeChain(n.Func, a.gf.mutexKey, callers, pass, 0)
		suffix := ""
		if chain != "" {
			suffix = " (example lock-free path: " + chain + ")"
		}
		pass.Reportf(a.sel.Pos(),
			"%s %s outside its //cplint:guardedby region: %s is not held in %s%s — acquire it, or move the access into a caller's locked region",
			verb, a.gf.fieldKey, a.gf.mutexStr, analysis.FuncDisplay(n.Func), suffix)
	}

	check := func(root ast.Node, heldCtx func(pos token.Pos) heldSet) {
		for _, a := range guardedAccessesIn(info, root, guarded) {
			if fresh.Aliases(a.sel.X) {
				continue // freshly constructed object: not shared yet
			}
			report(a, heldCtx(a.sel.Pos()))
		}
	}

	// Top level: local regions plus held-on-entry.
	check(n.Decl.Body, func(pos token.Pos) heldSet {
		return unionHeld(localHeldAt(evs, pos, bodyEnd), entryHeld)
	})

	// Function literals: context at the definition point (or nothing when
	// go-spawned), plus the literal's own regions.
	ast.Inspect(n.Decl.Body, func(node ast.Node) bool {
		var lit *ast.FuncLit
		spawned := false
		switch x := node.(type) {
		case *ast.GoStmt:
			if l, ok := ast.Unparen(x.Call.Fun).(*ast.FuncLit); ok {
				lit, spawned = l, true
			}
		case *ast.FuncLit:
			lit = x
		}
		if lit == nil {
			return true
		}
		outer := heldSet{}
		if !spawned {
			outer = unionHeld(localHeldAt(evs, lit.Pos(), bodyEnd), entryHeld)
		}
		litEvs, _ := scanLockBody(info, lit.Body)
		check(lit.Body, func(pos token.Pos) heldSet {
			return unionHeld(localHeldAt(litEvs, pos, lit.Body.End()), outer)
		})
		return !spawned // the GoStmt branch already consumed its literal
	})
}

// guardedAccessesIn collects guarded-field selector accesses in root,
// classifying writes via the parent node (assignment LHS, inc/dec, address-
// taken). Nested function literals are excluded — callers scan them with
// their own held context. Composite-literal keys never appear as selectors,
// so initialization is exempt by construction.
func guardedAccessesIn(info *types.Info, root ast.Node, guarded map[*types.Var]*guardedField) []guardedAccess {
	var out []guardedAccess
	var stack []ast.Node
	skipLits := root
	ast.Inspect(root, func(n ast.Node) bool {
		if n == nil {
			stack = stack[:len(stack)-1]
			return false
		}
		if lit, ok := n.(*ast.FuncLit); ok && lit != skipLits {
			return false
		}
		stack = append(stack, n)
		sel, ok := n.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		v, ok := info.Uses[sel.Sel].(*types.Var)
		if !ok {
			return true
		}
		gf, ok := guarded[v]
		if !ok {
			return true
		}
		out = append(out, guardedAccess{sel: sel, gf: gf, write: isWriteContext(stack, sel)})
		return true
	})
	return out
}

// isWriteContext reports whether the selector at the top of the stack is
// written: an assignment LHS (plain or compound), an inc/dec operand, or an
// address-taken operand (the pointer can be written through).
func isWriteContext(stack []ast.Node, sel *ast.SelectorExpr) bool {
	// stack ends with sel; walk up through any parens.
	i := len(stack) - 2
	cur := ast.Node(sel)
	for i >= 0 {
		if p, ok := stack[i].(*ast.ParenExpr); ok {
			cur = p
			i--
			continue
		}
		break
	}
	if i < 0 {
		return false
	}
	switch p := stack[i].(type) {
	case *ast.AssignStmt:
		for _, lhs := range p.Lhs {
			if ast.Unparen(lhs) == cur {
				return true
			}
		}
	case *ast.IncDecStmt:
		return ast.Unparen(p.X) == cur
	case *ast.UnaryExpr:
		return p.Op == token.AND
	}
	return false
}

// freshLattice builds the constructor-exemption lattice: objects reachable
// from composite literals or new() created in this function are not shared
// yet, so unlocked initialization of their guarded fields is fine.
func freshLattice(info *types.Info, n *analysis.CallNode) *analysis.AliasLattice {
	al := &analysis.AliasLattice{Info: info, IsRoot: func(e ast.Expr) bool {
		switch x := e.(type) {
		case *ast.CompositeLit:
			return true
		case *ast.CallExpr:
			if id, ok := ast.Unparen(x.Fun).(*ast.Ident); ok {
				if b, ok := info.Uses[id].(*types.Builtin); ok {
					return b.Name() == "new"
				}
			}
		}
		return false
	}}
	al.Compute(n.Decl.Body)
	return al
}

// lockFreeChain renders an example caller chain along which mkey is not
// held, ending at f — evidence for why a helper's held-on-entry set lacks
// the mutex. "" when f has no analyzed callers (it is itself an entry
// point).
func lockFreeChain(f *types.Func, mkey string, callers map[*types.Func][]*analysis.CallNode, pass *analysis.ModulePass, depth int) string {
	if depth >= 6 {
		return analysis.FuncDisplay(f)
	}
	cs := callers[f]
	if len(cs) == 0 {
		return ""
	}
	sort.Slice(cs, func(i, j int) bool { return cs[i].Decl.Pos() < cs[j].Decl.Pos() })
	// Pick the first caller that does not locally hold the mutex anywhere —
	// a deterministic witness; fall back to the first caller.
	witness := cs[0]
	for _, c := range cs {
		evs, _ := scanLockBody(c.Pkg.Info, c.Decl.Body)
		holds := false
		for _, ev := range evs {
			if ev.acquire && ev.key == mkey {
				holds = true
				break
			}
		}
		if !holds {
			witness = c
			break
		}
	}
	prefix := lockFreeChain(witness.Func, mkey, callers, pass, depth+1)
	if prefix == "" {
		prefix = analysis.FuncDisplay(witness.Func)
	}
	return prefix + " → " + analysis.FuncDisplay(f)
}

// reportMisplacedGuardedby flags guardedby comments that are not attached to
// a struct field — they guard nothing.
func reportMisplacedGuardedby(pass *analysis.ModulePass) {
	for _, pkg := range pass.Pkgs {
		for _, file := range pkg.Files {
			attached := make(map[*ast.CommentGroup]bool)
			ast.Inspect(file, func(n ast.Node) bool {
				st, ok := n.(*ast.StructType)
				if !ok {
					return true
				}
				for _, field := range st.Fields.List {
					if field.Doc != nil {
						attached[field.Doc] = true
					}
					if field.Comment != nil {
						attached[field.Comment] = true
					}
				}
				return true
			})
			for _, cg := range file.Comments {
				if attached[cg] {
					continue
				}
				for _, c := range cg.List {
					if strings.HasPrefix(commentDirectiveText(c), guardedbyDirective) {
						pass.Reportf(c.Pos(),
							"misplaced //cplint:guardedby: the directive must be a struct field's doc or trailing comment; here it guards nothing")
					}
				}
			}
		}
	}
}
