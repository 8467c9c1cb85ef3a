package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// This file is the dataflow tier: def-use chains (every definition of each
// local variable, with a taint-style use-def walk) and a conservative local
// may-alias lattice (the set of variables whose value may be reachable from a
// root expression via field/index/slice operations). Both are
// intraprocedural and flow-insensitive: they read the function body as one
// unordered set of definitions and assignments, ignoring statement order and
// branches. That over-approximates reaching definitions, so a taint or alias
// answer can only widen relative to a flow-sensitive analysis, never narrow.

// Def is one definition of a variable inside a function body: an assignment,
// a short declaration, an inc/dec, or a range statement binding its
// per-iteration variables.
type Def struct {
	Var *types.Var
	// Node is the defining node; *ast.RangeStmt for loop-variable defs, the
	// *ast.AssignStmt / *ast.IncDecStmt / *ast.ValueSpec otherwise.
	Node ast.Node
	// Rhs lists the expressions the defined value derives from (the ranged
	// container for range defs; both operands for compound assignments).
	// Empty for defs with no useful source (var declarations without values).
	Rhs []ast.Expr
}

// DefUse indexes the definitions of each variable in one function body.
type DefUse struct {
	info *types.Info
	defs map[*types.Var][]*Def
}

// NewDefUse indexes every definition in body, per variable in source order.
// Nested function literals are opaque: their interiors neither define nor
// observe the enclosing function's chains (a capture-and-mutate closure is
// exactly the kind of site the analyzers flag by other means).
func NewDefUse(info *types.Info, body *ast.BlockStmt) *DefUse {
	du := &DefUse{info: info, defs: make(map[*types.Var][]*Def)}
	for _, d := range collectDefs(info, body) {
		du.defs[d.Var] = append(du.defs[d.Var], d)
	}
	return du
}

// DefsFor returns every definition of the variable the use reads, a superset
// of the definitions that may reach it. A use with no recorded defs
// (parameter, package-level variable, captured outer variable) returns nil.
func (du *DefUse) DefsFor(use *ast.Ident) []*Def {
	v, ok := du.info.Uses[use].(*types.Var)
	if !ok {
		return nil
	}
	return du.defs[v]
}

// Tainted reports whether expr's value may derive from a definition src
// flags (a range statement over a map, say), walking use-def chains through
// local variables. The walk is bounded by a visited set over defs, so
// loop-carried chains terminate.
func (du *DefUse) Tainted(expr ast.Expr, src func(*Def) bool) bool {
	visited := make(map[*Def]bool)
	var walkExpr func(e ast.Expr) bool
	walkExpr = func(e ast.Expr) bool {
		found := false
		ast.Inspect(e, func(n ast.Node) bool {
			if found {
				return false
			}
			if _, ok := n.(*ast.FuncLit); ok {
				return false
			}
			id, ok := n.(*ast.Ident)
			if !ok {
				return true
			}
			for _, d := range du.DefsFor(id) {
				if visited[d] {
					continue
				}
				visited[d] = true
				if src(d) {
					found = true
					return false
				}
				for _, rhs := range d.Rhs {
					if walkExpr(rhs) {
						found = true
						return false
					}
				}
			}
			return true
		})
		return found
	}
	return walkExpr(expr)
}

// collectDefs extracts the defs under node in source order. Nested function
// literals are skipped.
func collectDefs(info *types.Info, node ast.Node) []*Def {
	var defs []*Def
	varOf := func(id *ast.Ident) *types.Var {
		if id == nil || id.Name == "_" {
			return nil
		}
		obj := info.Defs[id]
		if obj == nil {
			obj = info.Uses[id]
		}
		v, _ := obj.(*types.Var)
		return v
	}
	add := func(id *ast.Ident, node ast.Node, rhs ...ast.Expr) {
		if v := varOf(id); v != nil {
			defs = append(defs, &Def{Var: v, Node: node, Rhs: rhs})
		}
	}
	ast.Inspect(node, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.RangeStmt:
			if k, ok := x.Key.(*ast.Ident); ok {
				add(k, x, x.X)
			}
			if v, ok := x.Value.(*ast.Ident); ok {
				add(v, x, x.X)
			}
		case *ast.AssignStmt:
			switch {
			case x.Tok == token.ASSIGN || x.Tok == token.DEFINE:
				for i, lhs := range x.Lhs {
					id, ok := lhs.(*ast.Ident)
					if !ok {
						continue
					}
					if len(x.Rhs) == len(x.Lhs) {
						add(id, x, x.Rhs[i])
					} else {
						add(id, x, x.Rhs...)
					}
				}
			default: // compound: x op= y defines x from both operands
				if id, ok := x.Lhs[0].(*ast.Ident); ok {
					add(id, x, x.Rhs[0], x.Lhs[0])
				}
			}
		case *ast.IncDecStmt:
			if id, ok := x.X.(*ast.Ident); ok {
				add(id, x, x.X)
			}
		case *ast.ValueSpec:
			for i, id := range x.Names {
				if len(x.Values) == len(x.Names) {
					add(id, x, x.Values[i])
				} else if len(x.Values) > 0 {
					add(id, x, x.Values...)
				} else {
					add(id, x)
				}
			}
		}
		return true
	})
	return defs
}

// AliasLattice computes, over one function body, the conservative set of local
// variables whose value may alias an object rooted at a flagged expression:
// anything reachable from a root via field selection, indexing, slicing,
// type assertion, address-taking, or composite-literal embedding. May-alias
// is a union lattice, iterated to fixpoint, so conditional aliasing counts.
type AliasLattice struct {
	Info *types.Info
	// IsRoot flags root expressions (a composite literal, a new() call —
	// whatever the analysis tracks).
	IsRoot func(ast.Expr) bool

	vars map[*types.Var]bool
}

// Vars returns the fixpoint alias set. Valid after Compute.
func (al *AliasLattice) Vars() map[*types.Var]bool { return al.vars }

// Compute runs the fixpoint over the function body.
func (al *AliasLattice) Compute(body *ast.BlockStmt) {
	al.vars = make(map[*types.Var]bool)
	for al.transfer(body) {
	}
}

// transfer applies every assignment under node to the alias set, reporting
// whether the set grew. Function-literal interiors are included: code inside
// a literal runs with access to the same locals, and a store made there
// still aliases.
func (al *AliasLattice) transfer(node ast.Node) bool {
	changed := false
	mark := func(v *types.Var) {
		if v != nil && !al.vars[v] && refLike(v.Type()) {
			al.vars[v] = true
			changed = true
		}
	}
	// markLHS records that an aliasing value was stored at lhs: a plain
	// identifier becomes an alias; a store through a field/index of a local
	// (x.f = alias) makes the local itself reach the root.
	markLHS := func(lhs ast.Expr) {
		switch x := ast.Unparen(lhs).(type) {
		case *ast.Ident:
			if v := identVar(al.Info, x); v != nil {
				mark(v)
			}
		default:
			if base := BaseIdent(lhs); base != nil {
				if v := identVar(al.Info, base); v != nil {
					mark(v)
				}
			}
		}
	}
	ast.Inspect(node, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.AssignStmt:
			if x.Tok != token.ASSIGN && x.Tok != token.DEFINE {
				return true // compound ops are arithmetic, never reference-valued
			}
			if len(x.Rhs) == len(x.Lhs) {
				for i, rhs := range x.Rhs {
					if al.Aliases(rhs) {
						markLHS(x.Lhs[i])
					}
				}
			} else if len(x.Rhs) == 1 {
				if al.Aliases(x.Rhs[0]) {
					for _, lhs := range x.Lhs {
						markLHS(lhs)
					}
				}
			}
		case *ast.ValueSpec:
			for i, id := range x.Names {
				switch {
				case len(x.Values) == len(x.Names) && al.Aliases(x.Values[i]):
					mark(identVar(al.Info, id))
				case len(x.Values) == 1 && al.Aliases(x.Values[0]):
					mark(identVar(al.Info, id))
				}
			}
		case *ast.RangeStmt:
			// Ranging over an aliasing container: the value variable holds
			// (possibly reference-typed) elements of the rooted object.
			if al.Aliases(x.X) {
				if k, ok := x.Key.(*ast.Ident); ok {
					mark(identVar(al.Info, k))
				}
				if v, ok := x.Value.(*ast.Ident); ok {
					mark(identVar(al.Info, v))
				}
			}
		}
		return true
	})
	return changed
}

// Aliases reports whether the expression's value may alias a tracked root:
// it is a root, an aliased variable, or derived from one through
// field/index/slice/assert/address operations or a composite literal. Only
// reference-carrying types can alias (loading a float out of a rooted slab
// yields a plain value).
func (al *AliasLattice) Aliases(e ast.Expr) bool {
	if e == nil {
		return false
	}
	e = ast.Unparen(e)
	if al.IsRoot != nil && al.IsRoot(e) {
		return true
	}
	if t := al.Info.TypeOf(e); t != nil && !refLike(t) {
		return false
	}
	switch x := e.(type) {
	case *ast.Ident:
		v := identVar(al.Info, x)
		return v != nil && al.vars[v]
	case *ast.SelectorExpr:
		return al.Aliases(x.X)
	case *ast.IndexExpr:
		return al.Aliases(x.X)
	case *ast.SliceExpr:
		return al.Aliases(x.X)
	case *ast.StarExpr:
		return al.Aliases(x.X)
	case *ast.TypeAssertExpr:
		return al.Aliases(x.X)
	case *ast.UnaryExpr:
		if x.Op == token.AND {
			return al.Aliases(x.X)
		}
	case *ast.CompositeLit:
		for _, el := range x.Elts {
			if kv, ok := el.(*ast.KeyValueExpr); ok {
				el = kv.Value
			}
			if al.Aliases(el) {
				return true
			}
		}
	}
	return false
}

// identVar resolves an identifier to its variable object (use or def).
func identVar(info *types.Info, id *ast.Ident) *types.Var {
	obj := info.Uses[id]
	if obj == nil {
		obj = info.Defs[id]
	}
	v, _ := obj.(*types.Var)
	return v
}

// BaseIdent peels selectors, indexes, slices, stars, and parens down to the
// base identifier of an lvalue or access path, nil when the base is not an
// identifier (a call result, say).
func BaseIdent(e ast.Expr) *ast.Ident {
	for {
		switch x := ast.Unparen(e).(type) {
		case *ast.Ident:
			return x
		case *ast.SelectorExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.SliceExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.TypeAssertExpr:
			e = x.X
		default:
			return nil
		}
	}
}

// refLike reports whether values of t can carry a reference to shared
// backing memory: pointers, slices, maps, channels, functions, interfaces,
// and composites containing one. Plain numerics, strings, and booleans
// cannot (string bytes are immutable, so sharing them is unobservable).
func refLike(t types.Type) bool {
	return refLikeDepth(t, 0)
}

func refLikeDepth(t types.Type, depth int) bool {
	if t == nil || depth > 10 {
		return true // unknown or absurdly nested: stay conservative
	}
	switch u := t.Underlying().(type) {
	case *types.Pointer, *types.Slice, *types.Map, *types.Chan,
		*types.Signature, *types.Interface:
		return true
	case *types.Struct:
		for i := 0; i < u.NumFields(); i++ {
			if refLikeDepth(u.Field(i).Type(), depth+1) {
				return true
			}
		}
		return false
	case *types.Array:
		return refLikeDepth(u.Elem(), depth+1)
	case *types.Basic:
		return u.Kind() == types.UnsafePointer
	}
	return false
}
