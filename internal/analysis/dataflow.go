package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// This file is the dataflow tier: def-use chains, every definition of each
// local variable with a taint-style use-def walk. They are intraprocedural
// and flow-insensitive: they read the function body as one unordered set of
// definitions, ignoring statement order and branches. That over-approximates
// reaching definitions, so a may-question (is this value tainted?) can only
// widen relative to a flow-sensitive analysis, and a must-question (is every
// definition of this local a fresh object?) can only narrow.

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
