package geom

import "math"

// This file implements the focal-difference minimization of Section 6.3.1.
//
// For the Sum-MPN verification (Algorithm 6) we need, for a candidate point
// p′ and the current optimum p°, the minimum over all locations l in a
// square tile s of the difference  f(l) = ‖p′,l‖ − ‖p°,l‖.
//
// The level sets f(l) = r are confocal hyperbola branches with foci p′ and
// p° (Fig. 12). The gradient of f vanishes only on the two axis rays beyond
// the foci, where f is constant at ±‖p′,p°‖ — its global extremes — so any
// interior minimum over the tile is also attained on the tile boundary
// (the ray enters the tile through an edge). It therefore suffices to
// minimize f exactly along each of the four edges. Along an edge, f is
// smooth with at most a handful of critical points (tangencies to confocal
// branches plus the axis crossing); we locate them by a sign-change scan of
// df/dt followed by bisection, which yields the edge minimum to near
// machine precision.

// FocalDiffMin returns min over l ∈ tile of ‖pPrime,l‖ − ‖pOpt,l‖.
func FocalDiffMin(tile Rect, pPrime, pOpt Point) float64 {
	if pPrime == pOpt {
		return 0
	}
	c := tile.Corners()
	best := math.Inf(1)
	for i := 0; i < 4; i++ {
		v := edgeFocalDiffMin(c[i], c[(i+1)%4], pPrime, pOpt)
		if v < best {
			best = v
		}
	}
	return best
}

// edgeFocalDiffMin minimizes f(l)=‖pp,l‖−‖po,l‖ along the segment a→b.
func edgeFocalDiffMin(a, b, pp, po Point) float64 {
	e := b.Sub(a)
	f := func(t float64) float64 {
		l := Point{a.X + t*e.X, a.Y + t*e.Y}
		return pp.Dist(l) - po.Dist(l)
	}
	// df/dt; at a focus the derivative is undefined — return NaN and let
	// the scan skip that sample (foci are also global extremes of ±d which
	// neighboring samples approach continuously).
	g := func(t float64) float64 {
		l := Point{a.X + t*e.X, a.Y + t*e.Y}
		d1, d2 := pp.Dist(l), po.Dist(l)
		if d1 == 0 || d2 == 0 {
			return math.NaN()
		}
		return (l.Sub(pp).Dot(e))/d1 - (l.Sub(po).Dot(e))/d2
	}

	best := math.Min(f(0), f(1))

	const steps = 32
	prevT := 0.0
	prevG := g(0)
	for i := 1; i <= steps; i++ {
		t := float64(i) / steps
		gi := g(t)
		if math.IsNaN(gi) {
			// Sample sits exactly on a focus: evaluate and move on.
			if v := f(t); v < best {
				best = v
			}
			prevT, prevG = t, gi
			continue
		}
		if !math.IsNaN(prevG) && (prevG == 0 || prevG*gi < 0) {
			// Bracketed a critical point: bisect.
			lo, hi, glo := prevT, t, prevG
			for iter := 0; iter < 60; iter++ {
				mid := (lo + hi) / 2
				gm := g(mid)
				if math.IsNaN(gm) || gm == 0 {
					lo, hi = mid, mid
					break
				}
				if glo*gm < 0 {
					hi = mid
				} else {
					lo, glo = mid, gm
				}
			}
			if v := f((lo + hi) / 2); v < best {
				best = v
			}
		}
		prevT, prevG = t, gi
	}
	return best
}
