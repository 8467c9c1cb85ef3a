package experiments

import (
	"bytes"
	"strconv"
	"strings"
	"testing"
)

// cellFloat parses a table cell as float.
func cellFloat(t *testing.T, s string) float64 {
	t.Helper()
	v, err := strconv.ParseFloat(strings.TrimSpace(s), 64)
	if err != nil {
		t.Fatalf("cell %q not numeric: %v", s, err)
	}
	return v
}

func TestTableFprint(t *testing.T) {
	tbl := &Table{ID: "T", Title: "demo", Header: []string{"a", "bb"}}
	tbl.AddRow("1", "2")
	tbl.Notes = append(tbl.Notes, "a note")
	var buf bytes.Buffer
	tbl.Fprint(&buf)
	out := buf.String()
	for _, want := range []string{"== T: demo ==", "a ", "bb", "1", "note: a note"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

func TestWorldBuildsOnce(t *testing.T) {
	w1 := World()
	w2 := World()
	if w1 != w2 {
		t.Error("World should be cached")
	}
	if w1.Graph.NumNodes() < 200 {
		t.Errorf("world too small: %d nodes", w1.Graph.NumNodes())
	}
}

func TestDenseAndSparseODs(t *testing.T) {
	scn := World()
	dense := denseODs(scn, 10)
	if len(dense) != 10 {
		t.Fatalf("dense = %d", len(dense))
	}
	// Dense ODs must have real support.
	for _, req := range dense[:3] {
		if odSupport(scn, req.From, req.To) < 3 {
			t.Error("dense OD lacks trips")
		}
	}
	sparse := sparseODs(scn, 8, 42)
	for _, req := range sparse {
		if odSupport(scn, req.From, req.To) > 2 {
			t.Error("sparse OD has too many trips")
		}
	}
}

func TestE1AccuracyShape(t *testing.T) {
	tbl := E1Accuracy(12)
	if len(tbl.Rows) != 7 {
		t.Fatalf("rows = %d, want 7 methods", len(tbl.Rows))
	}
	byName := map[string][]string{}
	for _, r := range tbl.Rows {
		byName[r[0]] = r
	}
	cp := byName["CrowdPlanner"]
	if cp == nil {
		t.Fatal("no CrowdPlanner row")
	}
	cpDense := cellFloat(t, cp[1])
	// CrowdPlanner must beat both web-service baselines on dense data —
	// the paper's headline claim.
	for _, base := range []string{"ws-shortest", "ws-fastest"} {
		if b := cellFloat(t, byName[base][1]); b > cpDense+1e-9 {
			t.Errorf("%s (%v) beats CrowdPlanner (%v) on dense", base, b, cpDense)
		}
	}
	// Miners must answer fewer sparse requests than CrowdPlanner.
	cpSparseAns := cellFloat(t, cp[7])
	for _, miner := range []string{"MPR", "LDR", "MFP"} {
		if a := cellFloat(t, byName[miner][7]); a > cpSparseAns+1e-9 {
			t.Errorf("%s answers more sparse requests (%v) than CrowdPlanner (%v)", miner, a, cpSparseAns)
		}
	}
}

func TestE2QuestionsShape(t *testing.T) {
	tbl := E2Questions(8)
	if len(tbl.Rows) == 0 {
		t.Fatal("no rows")
	}
	for _, r := range tbl.Rows {
		id3 := cellFloat(t, r[2])
		random := cellFloat(t, r[4])
		all := cellFloat(t, r[5])
		if id3 > all+1e-9 {
			t.Errorf("n=%s: ID3 %v exceeds ask-all %v", r[0], id3, all)
		}
		if id3 > random+0.35 {
			t.Errorf("n=%s: ID3 %v materially worse than random %v", r[0], id3, random)
		}
	}
	// Expected questions must grow with n for ID3.
	first := cellFloat(t, tbl.Rows[0][2])
	last := cellFloat(t, tbl.Rows[len(tbl.Rows)-1][2])
	if last < first {
		t.Errorf("ID3 questions should grow with n: %v -> %v", first, last)
	}
}

func TestE3SelectionShape(t *testing.T) {
	tbl := E3Selection(2)
	if len(tbl.Rows) < 4 {
		t.Fatalf("rows = %d", len(tbl.Rows))
	}
	// Brute force must be slowest at the largest size.
	lastRow := tbl.Rows[len(tbl.Rows)-1]
	bf := cellFloat(t, lastRow[1])
	greedy := cellFloat(t, lastRow[3])
	if bf < greedy {
		t.Errorf("brute force (%v µs) should cost more than greedy (%v µs) at m=21", bf, greedy)
	}
}

func TestE5PMFShape(t *testing.T) {
	tbl := E5PMF()
	if len(tbl.Rows) < 4 {
		t.Fatal("missing rows")
	}
	// In the density sweep PMF must beat the baseline once the matrix has
	// signal (>= 5% density); at 2% the held-out entries are near the
	// information floor and PMF only needs to stay comparable.
	for i, r := range tbl.Rows[:4] {
		pmf := cellFloat(t, r[2])
		base := cellFloat(t, r[3])
		if i == 0 {
			if pmf > base*1.15 {
				t.Errorf("density %s: PMF RMSE %v far above baseline %v", r[0], pmf, base)
			}
			continue
		}
		if pmf >= base {
			t.Errorf("density %s: PMF RMSE %v not below baseline %v", r[0], pmf, base)
		}
	}
}

func TestRunAllSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("full registry smoke run is slow")
	}
	// RunAll prints each selected experiment's tables.
	var buf bytes.Buffer
	if err := RunAll(&buf, []string{"E2", "E3", "E5"}, 0.1); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, id := range []string{"E2", "E3", "E5"} {
		if !strings.Contains(out, "== "+id) {
			t.Errorf("output missing experiment %s", id)
		}
	}
	// Tiny scale: every registered experiment must run end to end and fill
	// each of its tables with rows as wide as the header.
	for _, s := range Registry() {
		t.Run(s.ID, func(t *testing.T) {
			tables := s.Run(0.1)
			if len(tables) == 0 {
				t.Fatal("no tables")
			}
			for _, tbl := range tables {
				if len(tbl.Rows) == 0 {
					t.Errorf("table %q has no rows", tbl.Title)
				}
				for i, row := range tbl.Rows {
					if len(row) != len(tbl.Header) {
						t.Errorf("table %q row %d has %d cells, header %d", tbl.Title, i, len(row), len(tbl.Header))
					}
				}
			}
		})
	}
}

func TestRunAllUnknownID(t *testing.T) {
	var buf bytes.Buffer
	if err := RunAll(&buf, []string{"E99"}, 1); err == nil {
		t.Error("unknown ID should error")
	}
}

func TestFind(t *testing.T) {
	if _, ok := Find("E1"); !ok {
		t.Error("E1 should exist")
	}
	if _, ok := Find("nope"); ok {
		t.Error("nope should not exist")
	}
	if len(Registry()) != 13 {
		t.Errorf("registry size = %d, want 13", len(Registry()))
	}
}

func TestScaled(t *testing.T) {
	if scaled(10, 0.5) != 5 || scaled(10, 0.01) != 1 || scaled(3, 2) != 6 {
		t.Error("scaled arithmetic wrong")
	}
}
