package geom

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func almostEq(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestPointDist(t *testing.T) {
	tests := []struct {
		p, q Point
		want float64
	}{
		{Pt(0, 0), Pt(3, 4), 5},
		{Pt(1, 1), Pt(1, 1), 0},
		{Pt(-1, -1), Pt(2, 3), 5},
		{Pt(0, 0), Pt(0, 2), 2},
	}
	for _, tc := range tests {
		if got := tc.p.Dist(tc.q); !almostEq(got, tc.want, 1e-12) {
			t.Errorf("Dist(%v,%v)=%v want %v", tc.p, tc.q, got, tc.want)
		}
		if got := tc.p.Dist2(tc.q); !almostEq(got, tc.want*tc.want, 1e-12) {
			t.Errorf("Dist2(%v,%v)=%v want %v", tc.p, tc.q, got, tc.want*tc.want)
		}
	}
}

func TestPointVectorOps(t *testing.T) {
	p, q := Pt(1, 2), Pt(3, -4)
	if got := p.Add(q); got != Pt(4, -2) {
		t.Errorf("Add=%v", got)
	}
	if got := p.Sub(q); got != Pt(-2, 6) {
		t.Errorf("Sub=%v", got)
	}
	if got := p.Scale(2); got != Pt(2, 4) {
		t.Errorf("Scale=%v", got)
	}
	if got := p.Dot(q); got != 3-8 {
		t.Errorf("Dot=%v", got)
	}
	if got := Pt(0, 3).Norm(); got != 3 {
		t.Errorf("Norm=%v", got)
	}
	if got := Pt(1, 0).Angle(); got != 0 {
		t.Errorf("Angle=%v", got)
	}
	if got := Pt(0, 1).Angle(); !almostEq(got, math.Pi/2, 1e-12) {
		t.Errorf("Angle=%v", got)
	}
}

func TestRectBasics(t *testing.T) {
	r := Rect{Min: Pt(0, 0), Max: Pt(2, 4)}
	if r.Width() != 2 || r.Height() != 4 || r.Area() != 8 {
		t.Fatalf("dims wrong: %v %v %v", r.Width(), r.Height(), r.Area())
	}
	if r.Center() != Pt(1, 2) {
		t.Fatalf("center=%v", r.Center())
	}
	if !r.Contains(Pt(1, 1)) || !r.Contains(Pt(0, 0)) || !r.Contains(Pt(2, 4)) {
		t.Fatal("Contains should include interior and boundary")
	}
	if r.Contains(Pt(2.001, 1)) {
		t.Fatal("Contains outside point")
	}
	if !r.IsValid() {
		t.Fatal("valid rect reported invalid")
	}
	if (Rect{Min: Pt(1, 0), Max: Pt(0, 1)}).IsValid() {
		t.Fatal("invalid rect reported valid")
	}
}

func TestRectFromPoints(t *testing.T) {
	r := RectFromPoints(Pt(3, 1), Pt(0, 5))
	want := Rect{Min: Pt(0, 1), Max: Pt(3, 5)}
	if r != want {
		t.Fatalf("got %v want %v", r, want)
	}
}

func TestRectAround(t *testing.T) {
	r := RectAround(Pt(1, 1), 2)
	want := Rect{Min: Pt(0, 0), Max: Pt(2, 2)}
	if r != want {
		t.Fatalf("got %v want %v", r, want)
	}
}

func TestRectIntersect(t *testing.T) {
	a := Rect{Min: Pt(0, 0), Max: Pt(2, 2)}
	b := Rect{Min: Pt(1, 1), Max: Pt(3, 3)}
	c := Rect{Min: Pt(5, 5), Max: Pt(6, 6)}
	if !a.Intersects(b) || !b.Intersects(a) {
		t.Fatal("a,b should intersect")
	}
	if a.Intersects(c) {
		t.Fatal("a,c should not intersect")
	}
	got := a.Intersect(b)
	if got != (Rect{Min: Pt(1, 1), Max: Pt(2, 2)}) {
		t.Fatalf("Intersect=%v", got)
	}
	if a.Intersect(c).IsValid() {
		t.Fatal("disjoint intersection should be invalid")
	}
	// Touching edge counts as intersecting.
	d := Rect{Min: Pt(2, 0), Max: Pt(3, 2)}
	if !a.Intersects(d) {
		t.Fatal("touching rects should intersect")
	}
}

func TestRectUnion(t *testing.T) {
	a := Rect{Min: Pt(0, 0), Max: Pt(1, 1)}
	b := Rect{Min: Pt(2, -1), Max: Pt(3, 0.5)}
	got := a.Union(b)
	want := Rect{Min: Pt(0, -1), Max: Pt(3, 1)}
	if got != want {
		t.Fatalf("Union=%v want %v", got, want)
	}
}

func TestMinMaxDist(t *testing.T) {
	r := Rect{Min: Pt(0, 0), Max: Pt(2, 2)}
	tests := []struct {
		p        Point
		min, max float64
	}{
		{Pt(1, 1), 0, math.Sqrt2},                // inside: min 0, max to corner
		{Pt(3, 1), 1, math.Hypot(3, 1)},          // right of rect
		{Pt(-1, -1), math.Sqrt2, 3 * math.Sqrt2}, // diagonal
		{Pt(1, 5), 3, math.Hypot(1, 5)},          // above
	}
	for _, tc := range tests {
		if got := r.MinDist(tc.p); !almostEq(got, tc.min, 1e-12) {
			t.Errorf("MinDist(%v)=%v want %v", tc.p, got, tc.min)
		}
		if got := r.MaxDist(tc.p); !almostEq(got, tc.max, 1e-12) {
			t.Errorf("MaxDist(%v)=%v want %v", tc.p, got, tc.max)
		}
	}
}

// Property: MinDist and MaxDist bracket the distance to any point of the
// rectangle, and are attained by some point of the rectangle.
func TestMinMaxDistProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for i := 0; i < 2000; i++ {
		r := RectFromPoints(
			Pt(rng.Float64()*10-5, rng.Float64()*10-5),
			Pt(rng.Float64()*10-5, rng.Float64()*10-5),
		)
		p := Pt(rng.Float64()*20-10, rng.Float64()*20-10)
		lo, hi := r.MinDist(p), r.MaxDist(p)
		if lo > hi {
			t.Fatalf("MinDist %v > MaxDist %v", lo, hi)
		}
		// Sample interior points; all must fall within [lo, hi].
		for j := 0; j < 20; j++ {
			q := Pt(
				r.Min.X+rng.Float64()*r.Width(),
				r.Min.Y+rng.Float64()*r.Height(),
			)
			d := p.Dist(q)
			if d < lo-1e-9 || d > hi+1e-9 {
				t.Fatalf("sample dist %v outside [%v,%v]", d, lo, hi)
			}
		}
		// MinDist is attained at the closest point.
		if got := p.Dist(r.ClosestPoint(p)); !almostEq(got, lo, 1e-9) {
			t.Fatalf("ClosestPoint dist %v != MinDist %v", got, lo)
		}
		// MaxDist is attained at one of the corners.
		attained := false
		for _, c := range r.Corners() {
			if almostEq(p.Dist(c), hi, 1e-9) {
				attained = true
			}
		}
		if !attained {
			t.Fatalf("MaxDist %v not attained at any corner", hi)
		}
	}
}

func TestQuadrants(t *testing.T) {
	r := Rect{Min: Pt(0, 0), Max: Pt(4, 4)}
	qs := r.Quadrants()
	var area float64
	for _, q := range qs {
		if !q.IsValid() {
			t.Fatalf("invalid quadrant %v", q)
		}
		if !r.ContainsRect(q) {
			t.Fatalf("quadrant %v escapes parent", q)
		}
		area += q.Area()
	}
	if !almostEq(area, r.Area(), 1e-12) {
		t.Fatalf("quadrant areas sum to %v want %v", area, r.Area())
	}
}

func TestCircle(t *testing.T) {
	c := Circle{C: Pt(0, 0), R: 2}
	if !c.Contains(Pt(1, 1)) || !c.Contains(Pt(2, 0)) {
		t.Fatal("Contains")
	}
	if c.Contains(Pt(2.1, 0)) {
		t.Fatal("Contains outside")
	}
	if got := c.MinDist(Pt(5, 0)); !almostEq(got, 3, 1e-12) {
		t.Fatalf("MinDist=%v", got)
	}
	if got := c.MinDist(Pt(1, 0)); got != 0 {
		t.Fatalf("MinDist inside=%v", got)
	}
	if got := c.MaxDist(Pt(5, 0)); !almostEq(got, 7, 1e-12) {
		t.Fatalf("MaxDist=%v", got)
	}
	br := c.BoundingRect()
	if br != (Rect{Min: Pt(-2, -2), Max: Pt(2, 2)}) {
		t.Fatalf("BoundingRect=%v", br)
	}
}

func TestInscribedSquare(t *testing.T) {
	c := Circle{C: Pt(1, 1), R: 1}
	sq := c.InscribedSquare()
	if !almostEq(sq.Width(), math.Sqrt2, 1e-12) {
		t.Fatalf("side=%v want √2", sq.Width())
	}
	// All corners lie on the circle.
	for _, corner := range sq.Corners() {
		if !almostEq(c.C.Dist(corner), c.R, 1e-12) {
			t.Fatalf("corner %v not on circle", corner)
		}
	}
}

func TestAngleHelpers(t *testing.T) {
	if got := NormalizeAngle(3 * math.Pi); !almostEq(got, math.Pi, 1e-12) {
		t.Fatalf("NormalizeAngle=%v", got)
	}
	if got := NormalizeAngle(-3 * math.Pi); !almostEq(got, math.Pi, 1e-12) {
		t.Fatalf("NormalizeAngle=%v", got)
	}
	if got := AngleDiff(0.1, -0.1); !almostEq(got, 0.2, 1e-12) {
		t.Fatalf("AngleDiff=%v", got)
	}
	if got := AngleDiff(math.Pi-0.05, -math.Pi+0.05); !almostEq(got, 0.1, 1e-12) {
		t.Fatalf("AngleDiff wraparound=%v", got)
	}
}

// Property: FocalDiffMin is a true lower bound over dense sampling, and is
// attained (within tolerance) by some sample.
func TestFocalDiffMinProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for i := 0; i < 1000; i++ {
		tile := RectAround(Pt(rng.Float64()*4-2, rng.Float64()*4-2), rng.Float64()+0.1)
		pp := Pt(rng.Float64()*8-4, rng.Float64()*8-4)
		po := Pt(rng.Float64()*8-4, rng.Float64()*8-4)
		got := FocalDiffMin(tile, pp, po)

		sampleMin := math.Inf(1)
		const grid = 24
		for a := 0; a <= grid; a++ {
			for b := 0; b <= grid; b++ {
				l := Pt(
					tile.Min.X+float64(a)/grid*tile.Width(),
					tile.Min.Y+float64(b)/grid*tile.Height(),
				)
				v := pp.Dist(l) - po.Dist(l)
				if v < sampleMin {
					sampleMin = v
				}
			}
		}
		if got > sampleMin+1e-9 {
			t.Fatalf("FocalDiffMin=%v exceeds sampled min %v (tile=%v pp=%v po=%v)",
				got, sampleMin, tile, pp, po)
		}
		// The analytic min should be close to the sampled min (sampling is
		// a grid so allow discretization slack proportional to tile size).
		slack := 2 * tile.Width() / grid
		if sampleMin-got > slack {
			t.Fatalf("FocalDiffMin=%v too far below sampled min %v", got, sampleMin)
		}
	}
}

// FocalDiff values are bounded by ±‖p′,p°‖ (triangle inequality).
func TestFocalDiffTriangleBound(t *testing.T) {
	f := func(cx, cy, side, px, py, ox, oy float64) bool {
		side = math.Mod(math.Abs(side), 3) + 0.01
		tile := RectAround(Pt(math.Mod(cx, 5), math.Mod(cy, 5)), side)
		pp, po := Pt(math.Mod(px, 5), math.Mod(py, 5)), Pt(math.Mod(ox, 5), math.Mod(oy, 5))
		d := pp.Dist(po)
		v := FocalDiffMin(tile, pp, po)
		return v >= -d-1e-9 && v <= d+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}
