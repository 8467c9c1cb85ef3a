package analyzers

import (
	"go/ast"
	"go/token"
	"go/types"

	"crowdplanner/internal/analysis"
)

// Floatdet flags floating-point reductions whose result depends on an
// iteration or scheduling order the language randomizes — the numeric cousin
// of detorder. Float addition is not associative: summing the same multiset
// of values in two different orders can round differently, so a fold that is
// provably "commutative" for integers still breaks bit-identical replay for
// floats. In deterministic packages (the replay set detorder scopes), two
// shapes are findings:
//
//   - a float `+=`/`-=`/`*=` or min/max fold whose right-hand side is
//     data-flow tainted by a range-over-map definition (directly inside the
//     range, or through locals collected from one) with no visible sort
//     before the fold — map iteration order is randomized per run, so the
//     rounded total varies. The same applies to folds fed by channel
//     receives, whose order follows goroutine scheduling.
//   - a float accumulator captured by a `go` literal and updated inside it —
//     even under a mutex the additions interleave in scheduler order, so the
//     merged sum differs run to run. Indexed partials (each goroutine owns
//     partial[i], merged sequentially afterwards) are the sanctioned shape
//     and are not flagged.
//
// Taint tracking uses the def-use chains of dataflow.go, so collect-then-fold
// across locals is caught, and the collect-SORT-fold idiom is exempt exactly
// like detorder: any call into package sort (or slices.Sort*) positioned
// before the fold makes the iteration order visible and pinned.
var Floatdet = &analysis.Analyzer{
	Name:      "floatdet",
	Doc:       "float folds in deterministic packages must not be fed by randomized map/channel order or merged across goroutines",
	RunModule: runFloatdet,
}

func runFloatdet(pass *analysis.ModulePass) {
	for _, n := range pass.Graph.Nodes() {
		if !isDeterministic(n.Pkg.Path) {
			continue
		}
		checkFloatFolds(pass, n)
	}
}

// isFloat reports whether t's core type is a floating-point scalar.
func isFloat(t types.Type) bool {
	if t == nil {
		return false
	}
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsFloat != 0
}

// floatFold is one order-sensitive accumulation site: the accumulator
// expression, the value expression feeding it, and how ("+=", "min/max").
type floatFold struct {
	assign *ast.AssignStmt
	acc    ast.Expr
	value  ast.Expr
	kind   string
}

// foldAt classifies stmt as a float fold: a compound assignment with a float
// accumulator, or `acc = min(acc, v)` / `acc = math.Min(acc, v)` style
// re-assignment through a min/max call.
func foldAt(info *types.Info, stmt *ast.AssignStmt) (floatFold, bool) {
	if len(stmt.Lhs) != 1 || len(stmt.Rhs) != 1 {
		return floatFold{}, false
	}
	acc, value := stmt.Lhs[0], stmt.Rhs[0]
	if !isFloat(info.TypeOf(acc)) {
		return floatFold{}, false
	}
	switch stmt.Tok {
	case token.ADD_ASSIGN, token.SUB_ASSIGN, token.MUL_ASSIGN:
		return floatFold{assign: stmt, acc: acc, value: value, kind: stmt.Tok.String()}, true
	case token.ASSIGN:
		call, ok := ast.Unparen(value).(*ast.CallExpr)
		if !ok || !isMinMaxCall(info, call) {
			return floatFold{}, false
		}
		// One argument must be the accumulator itself — that is what makes
		// it a fold rather than a fresh computation.
		accStr := exprString(acc)
		for _, arg := range call.Args {
			if exprString(arg) == accStr {
				return floatFold{assign: stmt, acc: acc, value: value, kind: "min/max"}, true
			}
		}
	}
	return floatFold{}, false
}

// isMinMaxCall recognizes the builtin min/max and math.Min/math.Max.
func isMinMaxCall(info *types.Info, call *ast.CallExpr) bool {
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
		if b, ok := info.Uses[id].(*types.Builtin); ok {
			return b.Name() == "min" || b.Name() == "max"
		}
	}
	f := calleeFunc(info, call)
	return f != nil && isPkgFunc(f, "math", "Min", "Max")
}

func checkFloatFolds(pass *analysis.ModulePass, n *analysis.CallNode) {
	info := n.Pkg.Info
	body := n.Decl.Body
	du := analysis.NewDefUse(info, body)

	// Sort calls, for the collect-sort-fold exemption.
	var sortCalls []ast.Node
	ast.Inspect(body, func(node ast.Node) bool {
		if call, ok := node.(*ast.CallExpr); ok {
			if f := calleeFunc(info, call); f != nil && isSortCall(f) {
				sortCalls = append(sortCalls, call)
			}
		}
		return true
	})
	sortedBefore := func(pos token.Pos) bool {
		for _, s := range sortCalls {
			if s.End() <= pos {
				return true
			}
		}
		return false
	}

	rangeOver := func(d *analysis.Def, want func(types.Type) bool) bool {
		rs, ok := d.Node.(*ast.RangeStmt)
		if !ok {
			return false
		}
		t := info.TypeOf(rs.X)
		return t != nil && want(t.Underlying())
	}
	isMapDef := func(d *analysis.Def) bool {
		return rangeOver(d, func(t types.Type) bool { _, ok := t.(*types.Map); return ok })
	}
	isChanDef := func(d *analysis.Def) bool {
		return rangeOver(d, func(t types.Type) bool { _, ok := t.(*types.Chan); return ok })
	}

	// Shape 1: folds fed by randomized iteration order. Function-literal
	// interiors are skipped — the go-literal shape below covers the one that
	// matters, and the def-use index does not look inside literals.
	ast.Inspect(body, func(node ast.Node) bool {
		if _, ok := node.(*ast.FuncLit); ok {
			return false
		}
		stmt, ok := node.(*ast.AssignStmt)
		if !ok {
			return true
		}
		fold, ok := foldAt(info, stmt)
		if !ok || sortedBefore(stmt.Pos()) {
			return true
		}
		switch {
		case du.Tainted(fold.value, isMapDef):
			pass.Reportf(stmt.Pos(),
				"float %s fold into %s is fed by range-over-map values in deterministic package %q: float addition is not associative, so the randomized iteration order changes the rounded result — fold over sorted keys, or accumulate in integers",
				fold.kind, exprString(fold.acc), internalSegment(n.Pkg.Path))
		case du.Tainted(fold.value, isChanDef):
			pass.Reportf(stmt.Pos(),
				"float %s fold into %s is fed by channel receives in deterministic package %q: receive order follows goroutine scheduling — collect per-sender partials into indexed slots and fold them sequentially",
				fold.kind, exprString(fold.acc), internalSegment(n.Pkg.Path))
		}
		return true
	})

	// Shape 2: a captured float accumulator updated from a go literal.
	ast.Inspect(body, func(node ast.Node) bool {
		gs, ok := node.(*ast.GoStmt)
		if !ok {
			return true
		}
		lit, ok := ast.Unparen(gs.Call.Fun).(*ast.FuncLit)
		if !ok {
			return true
		}
		ast.Inspect(lit.Body, func(inner ast.Node) bool {
			stmt, ok := inner.(*ast.AssignStmt)
			if !ok {
				return true
			}
			fold, ok := foldAt(info, stmt)
			if !ok {
				return true
			}
			if _, indexed := ast.Unparen(fold.acc).(*ast.IndexExpr); indexed {
				return true // partial[i] is the sanctioned per-goroutine slot
			}
			if !capturedFromOutside(info, fold.acc, lit) {
				return true
			}
			pass.Reportf(stmt.Pos(),
				"float accumulator %s is merged from a go statement in deterministic package %q: goroutine interleaving orders the additions, so the sum rounds differently run to run — give each goroutine its own indexed partial and fold them deterministically",
				exprString(fold.acc), internalSegment(n.Pkg.Path))
			return true
		})
		return true
	})
}

// capturedFromOutside reports whether e's base variable is declared outside
// the literal — a captured accumulator shared with the spawning function.
func capturedFromOutside(info *types.Info, e ast.Expr, lit *ast.FuncLit) bool {
	id := analysis.BaseIdent(e)
	if id == nil {
		return false
	}
	obj := info.Uses[id]
	if obj == nil {
		obj = info.Defs[id]
	}
	v, ok := obj.(*types.Var)
	if !ok {
		return false
	}
	return v.Pos() < lit.Pos() || v.Pos() > lit.End()
}
