// Package geom provides the 2-D geometry kernel used throughout the MPN
// library: points, rectangles (axis-aligned), circles, and the min/max
// distance primitives of Definition 1 in the paper, plus the hyperbola-based
// minimization of ‖p′,l‖−‖p°,l‖ over a square tile required by the
// Sum-MPN verification (Section 6.3.1, Fig. 12).
//
// All coordinates are float64 in an arbitrary planar coordinate system; the
// experiment harness uses the unit square [0,1]².
package geom

import (
	"fmt"
	"math"
)

// Point is a location in the plane. It doubles as a user location and a
// point of interest, matching the paper's convention of denoting both a
// user and her location by the same symbol.
type Point struct {
	X, Y float64
}

// Pt is shorthand for constructing a Point.
func Pt(x, y float64) Point { return Point{X: x, Y: y} }

// Dist returns the Euclidean distance ‖p,q‖.
func (p Point) Dist(q Point) float64 {
	return math.Hypot(p.X-q.X, p.Y-q.Y)
}

// Dist2 returns the squared Euclidean distance. It avoids the square root
// for comparison-only code paths (index traversal, nearest-neighbor heaps).
func (p Point) Dist2(q Point) float64 {
	dx, dy := p.X-q.X, p.Y-q.Y
	return dx*dx + dy*dy
}

// Add returns p translated by the vector q.
func (p Point) Add(q Point) Point { return Point{p.X + q.X, p.Y + q.Y} }

// Sub returns the vector p−q.
func (p Point) Sub(q Point) Point { return Point{p.X - q.X, p.Y - q.Y} }

// Scale returns p scaled by k about the origin.
func (p Point) Scale(k float64) Point { return Point{p.X * k, p.Y * k} }

// Norm returns the Euclidean norm of p viewed as a vector.
func (p Point) Norm() float64 { return math.Hypot(p.X, p.Y) }

// Dot returns the dot product of p and q viewed as vectors.
func (p Point) Dot(q Point) float64 { return p.X*q.X + p.Y*q.Y }

// Angle returns the direction of the vector p in radians, in (−π, π].
func (p Point) Angle() float64 { return math.Atan2(p.Y, p.X) }

// String implements fmt.Stringer.
func (p Point) String() string { return fmt.Sprintf("(%.6g, %.6g)", p.X, p.Y) }

// Rect is an axis-aligned rectangle given by its lower-left and upper-right
// corners. A Rect with Min==Max is a degenerate point rectangle, which is a
// valid region. Tiles (square regions of Section 5) are represented as
// Rects whose side lengths are equal.
type Rect struct {
	Min, Max Point
}

// RectFromPoints returns the smallest Rect containing both p and q.
func RectFromPoints(p, q Point) Rect {
	return Rect{
		Min: Point{math.Min(p.X, q.X), math.Min(p.Y, q.Y)},
		Max: Point{math.Max(p.X, q.X), math.Max(p.Y, q.Y)},
	}
}

// RectAround returns the axis-aligned square of side length side centered
// at c. This is the tile constructor ☐(c, δ) from Algorithm 3.
func RectAround(c Point, side float64) Rect {
	h := side / 2
	return Rect{Min: Point{c.X - h, c.Y - h}, Max: Point{c.X + h, c.Y + h}}
}

// Center returns the rectangle's center point.
func (r Rect) Center() Point {
	return Point{(r.Min.X + r.Max.X) / 2, (r.Min.Y + r.Max.Y) / 2}
}

// Width returns the extent along the x axis.
func (r Rect) Width() float64 { return r.Max.X - r.Min.X }

// Height returns the extent along the y axis.
func (r Rect) Height() float64 { return r.Max.Y - r.Min.Y }

// Area returns the rectangle's area.
func (r Rect) Area() float64 { return r.Width() * r.Height() }

// IsValid reports whether Min ≤ Max on both axes.
func (r Rect) IsValid() bool {
	return r.Min.X <= r.Max.X && r.Min.Y <= r.Max.Y
}

// Contains reports whether p lies inside r (boundary inclusive).
func (r Rect) Contains(p Point) bool {
	return p.X >= r.Min.X && p.X <= r.Max.X && p.Y >= r.Min.Y && p.Y <= r.Max.Y
}

// ContainsRect reports whether s lies entirely inside r.
func (r Rect) ContainsRect(s Rect) bool {
	return r.Contains(s.Min) && r.Contains(s.Max)
}

// Intersects reports whether r and s share at least one point.
func (r Rect) Intersects(s Rect) bool {
	return r.Min.X <= s.Max.X && s.Min.X <= r.Max.X &&
		r.Min.Y <= s.Max.Y && s.Min.Y <= r.Max.Y
}

// Union returns the smallest Rect containing both r and s.
func (r Rect) Union(s Rect) Rect {
	return Rect{
		Min: Point{math.Min(r.Min.X, s.Min.X), math.Min(r.Min.Y, s.Min.Y)},
		Max: Point{math.Max(r.Max.X, s.Max.X), math.Max(r.Max.Y, s.Max.Y)},
	}
}

// Intersect returns the intersection of r and s. If they do not intersect,
// the returned Rect is invalid (IsValid reports false).
func (r Rect) Intersect(s Rect) Rect {
	return Rect{
		Min: Point{math.Max(r.Min.X, s.Min.X), math.Max(r.Min.Y, s.Min.Y)},
		Max: Point{math.Min(r.Max.X, s.Max.X), math.Min(r.Max.Y, s.Max.Y)},
	}
}

// Corners returns the four corner points of r in counter-clockwise order
// starting at Min.
func (r Rect) Corners() [4]Point {
	return [4]Point{
		r.Min,
		{r.Max.X, r.Min.Y},
		r.Max,
		{r.Min.X, r.Max.Y},
	}
}

// ClosestPoint returns the point of r closest to p (p itself if inside).
func (r Rect) ClosestPoint(p Point) Point {
	return Point{clamp(p.X, r.Min.X, r.Max.X), clamp(p.Y, r.Min.Y, r.Max.Y)}
}

// MinDist returns ‖p,r‖min, the minimum distance from p to any point of r
// (Definition 1, Eq. 1). Zero when p lies inside r.
func (r Rect) MinDist(p Point) float64 {
	dx := axisDist(p.X, r.Min.X, r.Max.X)
	dy := axisDist(p.Y, r.Min.Y, r.Max.Y)
	return rectHypot(dx, dy)
}

// MaxDist returns ‖p,r‖max, the maximum distance from p to any point of r
// (Definition 1, Eq. 2). The maximum is attained at one of the corners.
func (r Rect) MaxDist(p Point) float64 {
	dx, dx2 := math.Abs(p.X-r.Min.X), math.Abs(p.X-r.Max.X)
	if dx2 > dx {
		dx = dx2
	}
	dy, dy2 := math.Abs(p.Y-r.Min.Y), math.Abs(p.Y-r.Max.Y)
	if dy2 > dy {
		dy = dy2
	}
	return rectHypot(dx, dy)
}

// rectHypot is √(dx²+dy²) for the two Rect distances, whose values the
// planner only ever compares. It is within an ulp of the exact distance
// (math.Hypot is within two) at a fraction of math.Hypot's cost, and,
// unlike math.Hypot, non-decreasing in either argument: squaring, adding
// and math.Sqrt all round monotonically. Gaps whose squares overflow
// (about 1e154 and up) take math.Hypot, so huge inputs keep their finite
// answers. The float64 conversions stop the compiler fusing the sum into
// an FMA, which would round differently on architectures that have one.
// Point.Dist stays math.Hypot: its values leave the planner (thresholds,
// radii, the reported optimum distance).
func rectHypot(dx, dy float64) float64 {
	s := float64(dx*dx) + float64(dy*dy)
	if s > math.MaxFloat64 {
		return math.Hypot(dx, dy)
	}
	return math.Sqrt(s)
}

// Quadrants splits r into its four equal quadrant sub-rectangles. It is the
// "divide s into four sub-tiles" step of Divide-Verify (Algorithm 2).
func (r Rect) Quadrants() [4]Rect {
	c := r.Center()
	return [4]Rect{
		{Min: r.Min, Max: c},
		{Min: Point{c.X, r.Min.Y}, Max: Point{r.Max.X, c.Y}},
		{Min: c, Max: r.Max},
		{Min: Point{r.Min.X, c.Y}, Max: Point{c.X, r.Max.Y}},
	}
}

// String implements fmt.Stringer.
func (r Rect) String() string {
	return fmt.Sprintf("[%v - %v]", r.Min, r.Max)
}

// axisDist is the 1-D distance from v to the interval [lo, hi]; zero when
// v falls inside the interval.
func axisDist(v, lo, hi float64) float64 {
	switch {
	case v < lo:
		return lo - v
	case v > hi:
		return v - hi
	default:
		return 0
	}
}

func clamp(v, lo, hi float64) float64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

// Circle is a disk with center C and radius R. Circular safe regions
// (Section 4) are values of this type.
type Circle struct {
	C Point
	R float64
}

// Contains reports whether p lies in the closed disk.
func (c Circle) Contains(p Point) bool {
	return c.C.Dist2(p) <= c.R*c.R
}

// MinDist returns the minimum distance from p to the disk: ‖p,c‖−R,
// clamped at zero when p is inside.
func (c Circle) MinDist(p Point) float64 {
	d := c.C.Dist(p) - c.R
	if d < 0 {
		return 0
	}
	return d
}

// MaxDist returns the maximum distance from p to the disk: ‖p,c‖+R.
func (c Circle) MaxDist(p Point) float64 {
	return c.C.Dist(p) + c.R
}

// BoundingRect returns the tight axis-aligned bounding rectangle.
func (c Circle) BoundingRect() Rect {
	return Rect{
		Min: Point{c.C.X - c.R, c.C.Y - c.R},
		Max: Point{c.C.X + c.R, c.C.Y + c.R},
	}
}

// InscribedSquare returns the maximal axis-aligned square inscribed in the
// circle; its side length is √2·R. Tile-MSR uses it to seed each user's
// tile region (Algorithm 3, lines 1–4).
func (c Circle) InscribedSquare() Rect {
	return RectAround(c.C, math.Sqrt2*c.R)
}

// String implements fmt.Stringer.
func (c Circle) String() string {
	return fmt.Sprintf("circle(%v, r=%.6g)", c.C, c.R)
}

// Segment is a directed line segment from A to B.
type Segment struct {
	A, B Point
}

// Len returns the segment's length.
func (s Segment) Len() float64 { return s.A.Dist(s.B) }

// At returns the point A + t·(B−A) for t ∈ [0,1].
func (s Segment) At(t float64) Point {
	return Point{s.A.X + t*(s.B.X-s.A.X), s.A.Y + t*(s.B.Y-s.A.Y)}
}

// NormalizeAngle maps an angle to (−π, π].
func NormalizeAngle(a float64) float64 {
	for a > math.Pi {
		a -= 2 * math.Pi
	}
	for a <= -math.Pi {
		a += 2 * math.Pi
	}
	return a
}

// AngleDiff returns the absolute angular difference between a and b in
// [0, π]. It is used by the directed tile ordering to test whether a tile's
// subtended angle deviates from the user's heading by more than θ.
func AngleDiff(a, b float64) float64 {
	d := math.Abs(NormalizeAngle(a - b))
	return d
}
