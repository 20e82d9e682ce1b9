package core

import (
	"math"

	"mpn/internal/geom"
)

// tileOrdering enumerates candidate tiles for one user on the implicit
// grid of δ-sized squares centered at the user's location (Fig. 8). Tiles
// are produced layer by layer: layer k holds the tiles whose grid
// coordinates have Chebyshev norm k, visited anti-clockwise starting east.
//
// The ordering supports the paper's termination rule: when a whole layer
// is exhausted without any tile having been accepted into the safe region,
// the iterator reports exhaustion (any farther tile would be disconnected
// from the region).
//
// With directed=true only tiles whose subtended angle at the user deviates
// from heading by at most theta (plus the tile's own angular half-width)
// are produced, implementing the directed ordering driven by the user's
// recent travel direction [26].
type tileOrdering struct {
	center    geom.Point
	delta     float64
	layer     int
	pos       int // index within the current layer's ring
	ringLen   int
	accepted  bool // any tile accepted in the current layer?
	maxLayers int

	// The directed cone, precomputed by reset for tileInCone: the unit
	// heading vector and the sine and cosine of θ.
	directed           bool
	heading            geom.Point
	cosTheta, sinTheta float64
}

// newTileOrdering starts the enumeration after the center tile (layer 0),
// which Algorithm 3 inserts unconditionally before growing.
func newTileOrdering(center geom.Point, delta float64, maxLayers int, directed bool, heading, theta float64) *tileOrdering {
	o := new(tileOrdering)
	o.reset(center, delta, maxLayers, directed, heading, theta)
	return o
}

// reset reinitializes the ordering in place, so workspace-resident
// orderings are reusable across computations without allocating.
func (o *tileOrdering) reset(center geom.Point, delta float64, maxLayers int, directed bool, heading, theta float64) {
	*o = tileOrdering{
		center:    center,
		delta:     delta,
		maxLayers: maxLayers,
		// θ ≥ π puts every bearing in the cone (a caller's Direction.Theta
		// is not bounded by Options' validation).
		directed: directed && theta < math.Pi,
		heading:  geom.Pt(math.Cos(heading), math.Sin(heading)),
		cosTheta: math.Cos(theta),
		sinTheta: math.Sin(theta),
		layer:    1,
		// accepted is false: it tracks acceptances within the layer being
		// enumerated (layer 1). The layer-0 seed is inserted
		// unconditionally by Tile-MSR, so layer 1 is always explored.
	}
	o.ringLen = ringLength(1)
}

// ringLength returns the number of grid cells at Chebyshev distance k.
func ringLength(k int) int {
	if k == 0 {
		return 1
	}
	return 8 * k
}

// ringCell maps (layer k, position i) to grid coordinates, walking the
// ring anti-clockwise from (k, 0): up the east edge, along the north,
// down the west, along the south.
func ringCell(k, i int) (gx, gy int) {
	if k == 0 {
		return 0, 0
	}
	side := 2 * k
	switch {
	case i < side: // east edge, going north from (k, 0) then wrapping
		return k, cellOffset(i, k)
	case i < 2*side: // north edge, going west
		j := i - side
		return k - 1 - j, k
	case i < 3*side: // west edge, going south
		j := i - 2*side
		return -k, k - 1 - j
	default: // south edge, going east
		j := i - 3*side
		return -k + 1 + j, -k
	}
}

// cellOffset maps the east edge's index i ∈ [0, 2k) to its y offset:
// 0, 1, …, k for i ≤ k, then −k+1, …, −1.
func cellOffset(i, k int) int {
	if i <= k {
		return i
	}
	return i - 2*k // i ∈ (k, 2k) → y ∈ [−k+1, −1]
}

// markAccepted records that a tile of the current layer entered the safe
// region, allowing the enumeration to continue into the next layer.
func (o *tileOrdering) markAccepted() { o.accepted = true }

// next returns the next candidate tile. ok=false means the ordering is
// exhausted (Next-Tile returned ∅ in Algorithm 3).
func (o *tileOrdering) next() (geom.Rect, bool) {
	for {
		if o.pos >= o.ringLen {
			// Layer finished: stop if nothing was accepted in it.
			if !o.accepted || o.layer >= o.maxLayers {
				return geom.Rect{}, false
			}
			o.layer++
			o.pos = 0
			o.ringLen = ringLength(o.layer)
			o.accepted = false
		}
		gx, gy := ringCell(o.layer, o.pos)
		o.pos++
		tile := geom.RectAround(
			geom.Pt(o.center.X+float64(gx)*o.delta, o.center.Y+float64(gy)*o.delta),
			o.delta,
		)
		if o.directed && !o.tileInCone(tile) {
			continue
		}
		return tile, true
	}
}

// tileInCone reports whether the tile's subtended angle at the user
// deviates from the heading by at most theta. The test uses the tile
// center's bearing with a grace of the tile's angular half-width
// α = atan2(r, d), r = δ√2/2, d = ‖v‖, so tiles straddling the cone
// boundary are kept: with φ the angle between v and the heading h, the
// tile is in iff φ ≤ θ+α.
//
// It is decided without a single atan2. Multiplying the angle-sum
// identities by √(d²+r²) > 0 gives sin(θ+α)·√(d²+r²) = d·sinθ + r·cosθ and
// cos(θ+α)·√(d²+r²) = d·cosθ − r·sinθ. When the first is negative, θ+α
// passes π and every bearing is in; otherwise θ+α ∈ [0, π], where cos is
// decreasing, and φ ≤ θ+α ⇔ cos φ = v·h/d ≥ cos(θ+α).
func (o *tileOrdering) tileInCone(tile geom.Rect) bool {
	v := tile.Center().Sub(o.center)
	d := math.Sqrt(v.Dot(v))
	if d == 0 {
		return true
	}
	r := o.delta * math.Sqrt2 / 2
	if d*o.sinTheta+r*o.cosTheta < 0 {
		return true
	}
	return v.Dot(o.heading)*math.Sqrt(d*d+r*r) >= d*(d*o.cosTheta-r*o.sinTheta)
}
