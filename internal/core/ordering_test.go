package core

import (
	"math"
	"math/rand"
	"testing"

	"mpn/internal/geom"
)

// atan2InCone is the directed-cone test as first written, with two atan2
// calls per tile: the tile center's bearing must deviate from the heading
// by at most θ plus the tile's angular half-width. tileInCone must decide
// exactly as it does.
func atan2InCone(center geom.Point, delta, heading, theta float64, tile geom.Rect) bool {
	v := tile.Center().Sub(center)
	dist := v.Norm()
	if dist == 0 {
		return true
	}
	halfWidth := math.Atan2(delta*math.Sqrt2/2, dist)
	return geom.AngleDiff(v.Angle(), heading) <= theta+halfWidth
}

// TestTileInConeMatchesAtan2 sweeps 4,000 seeded orderings — random
// centres and tile sides, random headings with every tenth a multiple of
// π/4 (tile centres then sit on the heading's own axis or diagonal), θ
// from π/6 to π — over layers 1–12, and requires the directed ordering's
// filter to keep exactly the tiles the atan2 form keeps.
func TestTileInConeMatchesAtan2(t *testing.T) {
	rng := rand.New(rand.NewSource(35))
	thetas := []float64{math.Pi / 6, math.Pi / 4, math.Pi / 3, math.Pi / 2, 2 * math.Pi / 3, 3 * math.Pi / 4, 5 * math.Pi / 6, math.Pi}
	const layers = 12
	var cells, in int
	var o tileOrdering
	for n := 0; n < 4000; n++ {
		center := geom.Pt(rng.Float64()*200-100, rng.Float64()*200-100)
		if n%2 == 0 {
			center = geom.Pt(rng.Float64(), rng.Float64())
		}
		delta := math.Pow(10, -4+3*rng.Float64())
		heading := rng.Float64()*2*math.Pi - math.Pi
		if n%10 == 0 {
			heading = float64(rng.Intn(16)-8) * math.Pi / 4
		}
		theta := thetas[rng.Intn(len(thetas))]
		if n%3 == 0 {
			theta = math.Pi/6 + rng.Float64()*5*math.Pi/6
		}
		o.reset(center, delta, layers, true, heading, theta)
		for k := 1; k <= layers; k++ {
			for i := range ringLength(k) {
				gx, gy := ringCell(k, i)
				tile := geom.RectAround(geom.Pt(center.X+float64(gx)*delta, center.Y+float64(gy)*delta), delta)
				got := !o.directed || o.tileInCone(tile)
				want := atan2InCone(center, delta, heading, theta, tile)
				if got != want {
					t.Fatalf("centre %v δ=%g heading=%g θ=%g layer %d cell (%d,%d): tileInCone=%v atan2=%v",
						center, delta, heading, theta, k, gx, gy, got, want)
				}
				cells++
				if want {
					in++
				}
			}
		}
	}
	if in == 0 || in == cells {
		t.Fatalf("vacuous sweep: %d of %d cells in the cone", in, cells)
	}
}
