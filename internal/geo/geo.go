// Package geo provides planar geometry primitives used throughout
// CrowdPlanner: points, distances, bounding boxes and polylines.
//
// All coordinates are expressed in meters in a local planar frame (the
// synthetic city generator emits coordinates directly in this frame, so no
// geodetic projection is required). Distances are Euclidean.
package geo

import (
	"fmt"
	"math"
)

// Point is a location in the local planar frame, in meters.
type Point struct {
	X float64
	Y float64
}

// String implements fmt.Stringer.
func (p Point) String() string {
	return fmt.Sprintf("(%.1f, %.1f)", p.X, p.Y)
}

// Dist returns the Euclidean distance in meters between p and q.
func Dist(p, q Point) float64 {
	dx := p.X - q.X
	dy := p.Y - q.Y
	return math.Hypot(dx, dy)
}

// SqDist returns the squared Euclidean distance between p and q. It avoids
// the square root and is the preferred comparison key in hot paths such as
// nearest-neighbour scans.
func SqDist(p, q Point) float64 {
	dx := p.X - q.X
	dy := p.Y - q.Y
	return dx*dx + dy*dy
}

// Lerp linearly interpolates between p and q; t=0 yields p, t=1 yields q.
func Lerp(p, q Point, t float64) Point {
	return Point{X: p.X + (q.X-p.X)*t, Y: p.Y + (q.Y-p.Y)*t}
}

// Midpoint returns the midpoint of the segment pq.
func Midpoint(p, q Point) Point {
	return Lerp(p, q, 0.5)
}

// BBox is an axis-aligned bounding box. A BBox is valid when Min.X <= Max.X
// and Min.Y <= Max.Y; the zero BBox is the empty box at the origin.
type BBox struct {
	Min Point
	Max Point
}

// NewBBox returns the smallest box containing all given points. It panics if
// called with no points.
func NewBBox(pts ...Point) BBox {
	if len(pts) == 0 {
		panic("geo: NewBBox requires at least one point")
	}
	b := BBox{Min: pts[0], Max: pts[0]}
	for _, p := range pts[1:] {
		b = b.Extend(p)
	}
	return b
}

// Extend returns the smallest box containing both b and p.
func (b BBox) Extend(p Point) BBox {
	if p.X < b.Min.X {
		b.Min.X = p.X
	}
	if p.Y < b.Min.Y {
		b.Min.Y = p.Y
	}
	if p.X > b.Max.X {
		b.Max.X = p.X
	}
	if p.Y > b.Max.Y {
		b.Max.Y = p.Y
	}
	return b
}

// Contains reports whether p lies inside b (inclusive of the boundary).
func (b BBox) Contains(p Point) bool {
	return p.X >= b.Min.X && p.X <= b.Max.X && p.Y >= b.Min.Y && p.Y <= b.Max.Y
}

// Buffer returns b grown by r meters on every side. Negative r shrinks the
// box; the result may become inverted (empty) if r is too negative.
func (b BBox) Buffer(r float64) BBox {
	return BBox{
		Min: Point{X: b.Min.X - r, Y: b.Min.Y - r},
		Max: Point{X: b.Max.X + r, Y: b.Max.Y + r},
	}
}

// Width returns the horizontal extent of b in meters.
func (b BBox) Width() float64 { return b.Max.X - b.Min.X }

// Height returns the vertical extent of b in meters.
func (b BBox) Height() float64 { return b.Max.Y - b.Min.Y }

// Center returns the center point of b.
func (b BBox) Center() Point { return Midpoint(b.Min, b.Max) }

// DistPointSegment returns the minimum distance from point p to the segment
// ab, together with the parameter t in [0,1] of the closest point on ab.
func DistPointSegment(p, a, b Point) (dist, t float64) {
	abx := b.X - a.X
	aby := b.Y - a.Y
	l2 := abx*abx + aby*aby
	if l2 == 0 {
		return Dist(p, a), 0
	}
	t = ((p.X-a.X)*abx + (p.Y-a.Y)*aby) / l2
	if t < 0 {
		t = 0
	} else if t > 1 {
		t = 1
	}
	closest := Point{X: a.X + t*abx, Y: a.Y + t*aby}
	return Dist(p, closest), t
}
