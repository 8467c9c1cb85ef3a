package geo

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func almostEqual(a, b, eps float64) bool { return math.Abs(a-b) <= eps }

func TestDist(t *testing.T) {
	cases := []struct {
		p, q Point
		want float64
	}{
		{Point{0, 0}, Point{0, 0}, 0},
		{Point{0, 0}, Point{3, 4}, 5},
		{Point{-1, -1}, Point{2, 3}, 5},
		{Point{10, 0}, Point{0, 0}, 10},
	}
	for _, c := range cases {
		if got := Dist(c.p, c.q); !almostEqual(got, c.want, 1e-9) {
			t.Errorf("Dist(%v,%v) = %v, want %v", c.p, c.q, got, c.want)
		}
	}
}

func TestDistSymmetric(t *testing.T) {
	f := func(ax, ay, bx, by float64) bool {
		a := Point{sanitize(ax), sanitize(ay)}
		b := Point{sanitize(bx), sanitize(by)}
		return almostEqual(Dist(a, b), Dist(b, a), 1e-9)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// sanitize maps arbitrary quick-generated floats into a tame finite range so
// distance arithmetic cannot overflow.
func sanitize(x float64) float64 {
	if math.IsNaN(x) || math.IsInf(x, 0) {
		return 0
	}
	return math.Mod(x, 1e6)
}

func TestDistTriangleInequality(t *testing.T) {
	f := func(ax, ay, bx, by, cx, cy float64) bool {
		a := Point{sanitize(ax), sanitize(ay)}
		b := Point{sanitize(bx), sanitize(by)}
		c := Point{sanitize(cx), sanitize(cy)}
		return Dist(a, c) <= Dist(a, b)+Dist(b, c)+1e-6
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestSqDistConsistent(t *testing.T) {
	f := func(ax, ay, bx, by float64) bool {
		a := Point{sanitize(ax), sanitize(ay)}
		b := Point{sanitize(bx), sanitize(by)}
		d := Dist(a, b)
		// Relative tolerance: at coordinates up to 1e6 the squared values
		// reach ~1e13, where float64 ulps exceed any fixed epsilon.
		eps := 1e-9 * math.Max(1, d*d)
		return almostEqual(SqDist(a, b), d*d, eps)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestLerp(t *testing.T) {
	a := Point{0, 0}
	b := Point{10, 20}
	if got := Lerp(a, b, 0); got != a {
		t.Errorf("Lerp t=0 = %v, want %v", got, a)
	}
	if got := Lerp(a, b, 1); got != b {
		t.Errorf("Lerp t=1 = %v, want %v", got, b)
	}
	mid := Lerp(a, b, 0.5)
	if !almostEqual(mid.X, 5, 1e-9) || !almostEqual(mid.Y, 10, 1e-9) {
		t.Errorf("Lerp t=0.5 = %v, want (5,10)", mid)
	}
	if got := Midpoint(a, b); got != mid {
		t.Errorf("Midpoint = %v, want %v", got, mid)
	}
}

func TestBBoxExtendContains(t *testing.T) {
	b := NewBBox(Point{0, 0})
	b = b.Extend(Point{10, 5})
	b = b.Extend(Point{-3, 7})
	if !b.Contains(Point{0, 0}) || !b.Contains(Point{10, 5}) || !b.Contains(Point{-3, 7}) {
		t.Error("box should contain all extended points")
	}
	if b.Contains(Point{11, 0}) {
		t.Error("box should not contain (11,0)")
	}
	if b.Min.X != -3 || b.Max.X != 10 || b.Min.Y != 0 || b.Max.Y != 7 {
		t.Errorf("unexpected box %+v", b)
	}
	if !almostEqual(b.Width(), 13, 1e-9) || !almostEqual(b.Height(), 7, 1e-9) {
		t.Errorf("width/height = %v/%v", b.Width(), b.Height())
	}
}

func TestNewBBoxPanicsOnEmpty(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("NewBBox() should panic with no points")
		}
	}()
	NewBBox()
}

func TestBBoxBufferUnionCenter(t *testing.T) {
	a := BBox{Point{0, 0}, Point{10, 10}}
	buf := a.Buffer(5)
	if buf.Min.X != -5 || buf.Max.Y != 15 {
		t.Errorf("Buffer = %+v", buf)
	}
	// The union of two boxes extends one by the other's corners.
	o := BBox{Point{20, 20}, Point{30, 30}}
	u := a.Extend(o.Min).Extend(o.Max)
	if u.Min != (Point{0, 0}) || u.Max != (Point{30, 30}) {
		t.Errorf("union = %+v", u)
	}
	if c := a.Center(); c != (Point{5, 5}) {
		t.Errorf("Center = %v", c)
	}
}

func TestDistPointSegment(t *testing.T) {
	a := Point{0, 0}
	b := Point{10, 0}
	d, tt := DistPointSegment(Point{5, 3}, a, b)
	if !almostEqual(d, 3, 1e-9) || !almostEqual(tt, 0.5, 1e-9) {
		t.Errorf("mid: d=%v t=%v", d, tt)
	}
	d, tt = DistPointSegment(Point{-4, 3}, a, b)
	if !almostEqual(d, 5, 1e-9) || tt != 0 {
		t.Errorf("before start: d=%v t=%v", d, tt)
	}
	d, tt = DistPointSegment(Point{14, 3}, a, b)
	if !almostEqual(d, 5, 1e-9) || tt != 1 {
		t.Errorf("after end: d=%v t=%v", d, tt)
	}
	// Degenerate segment.
	d, tt = DistPointSegment(Point{3, 4}, a, a)
	if !almostEqual(d, 5, 1e-9) || tt != 0 {
		t.Errorf("degenerate: d=%v t=%v", d, tt)
	}
}

func TestPolylineLength(t *testing.T) {
	pl := Polyline{{0, 0}, {3, 4}, {3, 10}}
	if got := pl.Length(); !almostEqual(got, 11, 1e-9) {
		t.Errorf("Length = %v, want 11", got)
	}
	if got := (Polyline{}).Length(); got != 0 {
		t.Errorf("empty Length = %v", got)
	}
	if got := (Polyline{{1, 1}}).Length(); got != 0 {
		t.Errorf("single Length = %v", got)
	}
}

func TestPolylineDistTo(t *testing.T) {
	pl := Polyline{{0, 0}, {10, 0}, {10, 10}}
	d, pos := pl.DistTo(Point{5, 2})
	if !almostEqual(d, 2, 1e-9) || !almostEqual(pos, 5, 1e-9) {
		t.Errorf("d=%v pos=%v", d, pos)
	}
	d, pos = pl.DistTo(Point{12, 5})
	if !almostEqual(d, 2, 1e-9) || !almostEqual(pos, 15, 1e-9) {
		t.Errorf("second segment: d=%v pos=%v", d, pos)
	}
	d, pos = pl.DistTo(Point{0, 0})
	if !almostEqual(d, 0, 1e-9) || !almostEqual(pos, 0, 1e-9) {
		t.Errorf("origin: d=%v pos=%v", d, pos)
	}
}

func TestPolylinePointAt(t *testing.T) {
	pl := Polyline{{0, 0}, {10, 0}, {10, 10}}
	if got := pl.PointAt(-5); got != (Point{0, 0}) {
		t.Errorf("PointAt(-5) = %v", got)
	}
	if got := pl.PointAt(5); !almostEqual(got.X, 5, 1e-9) || got.Y != 0 {
		t.Errorf("PointAt(5) = %v", got)
	}
	if got := pl.PointAt(15); got.X != 10 || !almostEqual(got.Y, 5, 1e-9) {
		t.Errorf("PointAt(15) = %v", got)
	}
	if got := pl.PointAt(1000); got != (Point{10, 10}) {
		t.Errorf("PointAt(big) = %v", got)
	}
}

func TestPolylineResample(t *testing.T) {
	pl := Polyline{{0, 0}, {10, 0}}
	rs := pl.Resample(3)
	if rs[0] != (Point{0, 0}) || rs[len(rs)-1] != (Point{10, 0}) {
		t.Errorf("endpoints not preserved: %v", rs)
	}
	if len(rs) != 5 { // 0,3,6,9,10
		t.Errorf("len = %d, want 5 (%v)", len(rs), rs)
	}
	// Zero-length polyline collapses to a single point.
	z := Polyline{{1, 1}, {1, 1}}
	if got := z.Resample(1); len(got) != 1 {
		t.Errorf("zero-length resample = %v", got)
	}
}

func TestGridNearest(t *testing.T) {
	b := BBox{Point{0, 0}, Point{100, 100}}
	g := NewGrid(b, 10)
	if _, _, ok := g.Nearest(Point{1, 1}); ok {
		t.Error("empty grid should report !ok")
	}
	pts := []Point{{5, 5}, {50, 50}, {95, 95}, {5, 95}}
	for i, p := range pts {
		g.Insert(int32(i), p)
	}
	id, d, ok := g.Nearest(Point{6, 6})
	if !ok || id != 0 || !almostEqual(d, math.Sqrt(2), 1e-9) {
		t.Errorf("Nearest = id=%d d=%v ok=%v", id, d, ok)
	}
	id, _, _ = g.Nearest(Point{60, 60})
	if id != 1 {
		t.Errorf("Nearest(60,60) = %d, want 1", id)
	}
	// Query far outside bounds still resolves.
	id, _, _ = g.Nearest(Point{-500, -500})
	if id != 0 {
		t.Errorf("Nearest(outside) = %d, want 0", id)
	}
}

func TestGridNearestMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	b := BBox{Point{0, 0}, Point{1000, 1000}}
	g := NewGrid(b, 37)
	pts := make([]Point, 200)
	for i := range pts {
		pts[i] = Point{rng.Float64() * 1000, rng.Float64() * 1000}
		g.Insert(int32(i), pts[i])
	}
	for trial := 0; trial < 200; trial++ {
		q := Point{rng.Float64()*1200 - 100, rng.Float64()*1200 - 100}
		gotID, gotD, ok := g.Nearest(q)
		if !ok {
			t.Fatal("unexpected !ok")
		}
		bestID, bestD := int32(-1), math.Inf(1)
		for i, p := range pts {
			if d := Dist(q, p); d < bestD {
				bestD, bestID = d, int32(i)
			}
		}
		if !almostEqual(gotD, bestD, 1e-9) {
			t.Fatalf("trial %d: grid d=%v id=%d, brute d=%v id=%d", trial, gotD, gotID, bestD, bestID)
		}
	}
}

func TestGridWithin(t *testing.T) {
	b := BBox{Point{0, 0}, Point{100, 100}}
	g := NewGrid(b, 10)
	for i := 0; i < 10; i++ {
		g.Insert(int32(i), Point{float64(i * 10), 0})
	}
	got := g.Within(Point{0, 0}, 25)
	want := []int32{0, 1, 2}
	if len(got) != len(want) {
		t.Fatalf("Within = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Within = %v, want %v", got, want)
		}
	}
	if got := g.Within(Point{0, 0}, -1); got != nil {
		t.Errorf("negative radius should return nil, got %v", got)
	}
	if g.Len() != 10 {
		t.Errorf("Len = %d", g.Len())
	}
	if p, ok := g.Point(3); !ok || p != (Point{30, 0}) {
		t.Errorf("Point(3) = %v %v", p, ok)
	}
	if _, ok := g.Point(99); ok {
		t.Error("Point(99) should not exist")
	}
}

func TestGridWithinMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	b := BBox{Point{0, 0}, Point{500, 500}}
	g := NewGrid(b, 21)
	pts := make([]Point, 150)
	for i := range pts {
		pts[i] = Point{rng.Float64() * 500, rng.Float64() * 500}
		g.Insert(int32(i), pts[i])
	}
	for trial := 0; trial < 100; trial++ {
		q := Point{rng.Float64() * 500, rng.Float64() * 500}
		r := rng.Float64() * 120
		got := g.Within(q, r)
		var want []int32
		for i, p := range pts {
			if Dist(q, p) <= r {
				want = append(want, int32(i))
			}
		}
		if len(got) != len(want) {
			t.Fatalf("trial %d: got %d items, want %d", trial, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("trial %d: got %v, want %v", trial, got, want)
			}
		}
	}
}

func TestNewGridPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("NewGrid with zero cell should panic")
		}
	}()
	NewGrid(BBox{}, 0)
}
