package analysis

import (
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"strings"
	"testing"
)

// parseTyped parses and type-checks a whole file (no imports allowed — the
// tests stay importer-free) and returns the named function's body plus lookup
// helpers keyed by source substrings.
func parseTyped(t *testing.T, src, fn string) (*ast.BlockStmt, *types.Info, func(marker string) token.Pos) {
	t.Helper()
	fset := token.NewFileSet()
	file, err := parser.ParseFile(fset, "df_test.go", src, 0)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Implicits:  make(map[ast.Node]types.Object),
	}
	conf := types.Config{}
	if _, err := conf.Check("p", fset, []*ast.File{file}, info); err != nil {
		t.Fatalf("typecheck: %v", err)
	}
	var body *ast.BlockStmt
	for _, d := range file.Decls {
		if fd, ok := d.(*ast.FuncDecl); ok && fd.Name.Name == fn {
			body = fd.Body
		}
	}
	if body == nil {
		t.Fatalf("function %s not found", fn)
	}
	tf := fset.File(file.Pos())
	posOf := func(marker string) token.Pos {
		t.Helper()
		off := strings.Index(src, marker)
		if off < 0 {
			t.Fatalf("marker %q not in source", marker)
		}
		return tf.Pos(off)
	}
	return body, info, posOf
}

// identAt finds the Ident starting exactly at pos.
func identAt(t *testing.T, body *ast.BlockStmt, pos token.Pos) *ast.Ident {
	t.Helper()
	var found *ast.Ident
	ast.Inspect(body, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok && id.Pos() == pos {
			found = id
		}
		return found == nil
	})
	if found == nil {
		t.Fatalf("no identifier at pos %v", pos)
	}
	return found
}

func TestDefUseShadowingInBlock(t *testing.T) {
	src := `package p
func f() int {
	x := 1
	x = 2
	return x
}`
	body, info, posOf := parseTyped(t, src, "f")
	du := NewDefUse(info, body)
	use := identAt(t, body, posOf("x\n}"))
	defs := du.DefsFor(use)
	// Flow-insensitive: the later def does not shadow the earlier one.
	if len(defs) != 2 {
		t.Fatalf("got %d defs, want 2 (every def of x in the body)", len(defs))
	}
	for i, tok := range []token.Token{token.DEFINE, token.ASSIGN} {
		if as, ok := defs[i].Node.(*ast.AssignStmt); !ok || as.Tok != tok {
			t.Fatalf("def %d is %T, want the %s assignment in source order", i, defs[i].Node, tok)
		}
	}
}

func TestDefUseBranchJoin(t *testing.T) {
	src := `package p
func f(c bool) int {
	x := 1
	if c {
		x = 2
	}
	return x
}`
	body, info, posOf := parseTyped(t, src, "f")
	du := NewDefUse(info, body)
	use := identAt(t, body, posOf("x\n}"))
	defs := du.DefsFor(use)
	if len(defs) != 2 {
		t.Fatalf("got %d defs at join, want 2", len(defs))
	}
}

func TestDefUseRangeDef(t *testing.T) {
	src := `package p
func f(m map[int]float64) float64 {
	var sum float64
	for _, v := range m {
		sum += v
	}
	return sum
}`
	body, info, posOf := parseTyped(t, src, "f")
	du := NewDefUse(info, body)
	use := identAt(t, body, posOf("v\n"))
	defs := du.DefsFor(use)
	if len(defs) != 1 {
		t.Fatalf("got %d defs for range value var, want 1", len(defs))
	}
	if _, ok := defs[0].Node.(*ast.RangeStmt); !ok {
		t.Fatalf("range var def node is %T, want *ast.RangeStmt", defs[0].Node)
	}
	if len(defs[0].Rhs) != 1 {
		t.Fatalf("range def should carry the ranged container as Rhs")
	}
}

func TestTaintedThroughLocals(t *testing.T) {
	src := `package p
func f(m map[int]float64) (float64, float64) {
	var a, b float64
	for _, v := range m {
		w := v * 2
		a += w
		b += 1.0
	}
	return a, b
}`
	body, info, posOf := parseTyped(t, src, "f")
	du := NewDefUse(info, body)
	fromRange := func(d *Def) bool {
		_, ok := d.Node.(*ast.RangeStmt)
		return ok
	}
	// a += w: w derives from the range value v — tainted.
	aUse := identAt(t, body, posOf("w\n"))
	if !du.Tainted(aUse, fromRange) {
		t.Fatalf("accumulation of range-derived value not reported tainted")
	}
	// b += 1.0: a constant — order-independent, must not be tainted.
	bRhs := identAt(t, body, posOf("b += 1.0"))
	_ = bRhs
	lit := findBasicLit(body, "1.0")
	if lit == nil {
		t.Fatalf("literal not found")
	}
	if du.Tainted(lit, fromRange) {
		t.Fatalf("constant accumulation reported tainted")
	}
}

func findBasicLit(root ast.Node, val string) ast.Expr {
	var found ast.Expr
	ast.Inspect(root, func(n ast.Node) bool {
		if bl, ok := n.(*ast.BasicLit); ok && bl.Value == val {
			found = bl
		}
		return found == nil
	})
	return found
}
