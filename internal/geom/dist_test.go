package geom

import (
	"math"
	"math/big"
	"math/rand"
	"testing"
)

// ulps is the number of float64 steps between two non-negative values.
func ulps(a, b float64) uint64 {
	x, y := math.Float64bits(a), math.Float64bits(b)
	if x > y {
		return x - y
	}
	return y - x
}

// exactHypot is √(dx²+dy²) rounded once, from 256-bit arithmetic.
func exactHypot(dx, dy float64) float64 {
	sq := func(v float64) *big.Float {
		f := new(big.Float).SetPrec(256).SetFloat64(v)
		return f.Mul(f, f)
	}
	s := sq(dx)
	v, _ := s.Sqrt(s.Add(s, sq(dy))).Float64()
	return v
}

// rectGaps are the per-axis gaps Rect.MinDist and Rect.MaxDist combine.
func rectGaps(r Rect, p Point) (minDx, minDy, maxDx, maxDy float64) {
	return axisDist(p.X, r.Min.X, r.Max.X), axisDist(p.Y, r.Min.Y, r.Max.Y),
		math.Max(math.Abs(p.X-r.Min.X), math.Abs(p.X-r.Max.X)),
		math.Max(math.Abs(p.Y-r.Min.Y), math.Abs(p.Y-r.Max.Y))
}

// randomRectPoint draws a rect and a point at a random scale between 1e-6
// and 1e6, the point inside, beside or far from the rect.
func randomRectPoint(rng *rand.Rand) (Rect, Point) {
	scale := math.Pow(10, -6+12*rng.Float64())
	c := Pt((rng.Float64()*2-1)*scale, (rng.Float64()*2-1)*scale)
	r := RectFromPoints(c, c.Add(Pt(rng.Float64()*scale, rng.Float64()*scale)))
	p := Pt((rng.Float64()*4-2)*scale, (rng.Float64()*4-2)*scale)
	return r, p
}

// TestRectDistNearHypot: on seeded random rects and points, Rect.MinDist
// and Rect.MaxDist are within one ulp of the exactly rounded distance.
// math.Hypot is itself up to two ulps off it, so the two may differ by
// two; they mostly agree bit for bit.
func TestRectDistNearHypot(t *testing.T) {
	rng := rand.New(rand.NewSource(35))
	var same, n int
	for ; n < 100000; n++ {
		r, p := randomRectPoint(rng)
		minDx, minDy, maxDx, maxDy := rectGaps(r, p)
		for _, c := range []struct {
			name   string
			got    float64
			dx, dy float64
		}{{"MinDist", r.MinDist(p), minDx, minDy}, {"MaxDist", r.MaxDist(p), maxDx, maxDy}} {
			exact, hypot := exactHypot(c.dx, c.dy), math.Hypot(c.dx, c.dy)
			if ulps(c.got, exact) > 1 || ulps(c.got, hypot) > 2 {
				t.Fatalf("%v.%s(%v) = %v: exact %v, math.Hypot %v", r, c.name, p, c.got, exact, hypot)
			}
			if c.got == hypot {
				same++
			}
		}
	}
	if same < n { // of 2n comparisons
		t.Fatalf("only %d of %d distances equal math.Hypot's", same, 2*n)
	}
}

// TestRectDistHugeEqualsHypot: gaps whose squares overflow take
// math.Hypot, so the answers stay finite and exactly what they were.
func TestRectDistHugeEqualsHypot(t *testing.T) {
	rng := rand.New(rand.NewSource(36))
	for n := 0; n < 10000; n++ {
		c := Pt((rng.Float64()*2-1)*1e200, (rng.Float64()*2-1)*1e200)
		r := RectAround(c, rng.Float64()*1e200)
		p := Pt((rng.Float64()*4-2)*1e200, (rng.Float64()*4-2)*1e200)
		minDx, minDy, maxDx, maxDy := rectGaps(r, p)
		if got, want := r.MinDist(p), math.Hypot(minDx, minDy); got != want {
			t.Fatalf("%v.MinDist(%v) = %v, math.Hypot gives %v", r, p, got, want)
		}
		if got, want := r.MaxDist(p), math.Hypot(maxDx, maxDy); got != want || math.IsInf(got, 0) {
			t.Fatalf("%v.MaxDist(%v) = %v, math.Hypot gives %v", r, p, got, want)
		}
	}
}

// TestRectDistMonotoneAlongAxes: moving a point away from a rect's centre
// along either axis, by a single ulp or by a random step, never decreases
// either distance. The planner's dead-subtree bounds rely on it: a leaf at
// least as far from a point on both axes is never nearer.
func TestRectDistMonotoneAlongAxes(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	away := func(v, centre, step float64) float64 {
		if v >= centre {
			if step == 0 {
				return math.Nextafter(v, math.Inf(1))
			}
			return v + step
		}
		if step == 0 {
			return math.Nextafter(v, math.Inf(-1))
		}
		return v - step
	}
	for n := 0; n < 200000; n++ {
		r, p := randomRectPoint(rng)
		step := 0.0 // one ulp
		if n%2 == 1 {
			step = rng.Float64() * math.Abs(p.X+p.Y) * 1e-9
		}
		c := r.Center()
		for _, q := range []Point{{away(p.X, c.X, step), p.Y}, {p.X, away(p.Y, c.Y, step)}} {
			if r.MinDist(q) < r.MinDist(p) || r.MaxDist(q) < r.MaxDist(p) {
				t.Fatalf("%v: moving %v to %v away from the centre shrank a distance: min %v→%v, max %v→%v",
					r, p, q, r.MinDist(p), r.MinDist(q), r.MaxDist(p), r.MaxDist(q))
			}
		}
	}
}
