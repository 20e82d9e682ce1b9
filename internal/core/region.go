// Package core implements the paper's contribution: independent safe
// regions for the Meeting Point Notification problem.
//
// Given a group of m moving users U and a POI set P indexed by an R-tree,
// the server reports the optimal meeting point p° (MAX-GNN, or SUM-GNN for
// the Sum-MPN variant) together with one safe region per user such that p°
// remains optimal for every combination of user locations inside their
// regions (Definition 3). The package provides:
//
//   - Verify            — the conservative group test of Lemma 1
//   - Plan, KindCircle  — circular safe regions (Algorithm 1, Theorems 1 and 5)
//   - Plan, KindTiles   — tile-based safe regions (Algorithm 3) with
//     divide-and-conquer verification (Algorithm 2),
//     group tile verification (Algorithm 4, Theorem 2),
//     index pruning (Theorems 3 and 6), undirected and
//     directed tile orderings (Fig. 8), and the buffering
//     optimization (Algorithm 5, Theorems 4 and 7)
//   - Sum-MPN support   — the hyperbola-based Sum-GT-Verify (Algorithm 6)
//     with per-user memoization
package core

import (
	"fmt"
	"math"

	"mpn/internal/geom"
)

// RegionKind discriminates the safe-region representations: the two
// Euclidean shapes studied in the paper's main body, and the road-network
// range region of its Section 8 extension.
type RegionKind int

const (
	// KindCircle is a circular safe region (Section 4).
	KindCircle RegionKind = iota
	// KindTiles is a tile-based safe region: a union of axis-aligned
	// squares (Section 5).
	KindTiles
	// KindNetRange is a road-network range region: the set of road-segment
	// intervals within a network radius of the user (Section 8). The
	// payload is opaque to core — a NetworkRegion produced by the
	// registered network backend.
	KindNetRange
)

// String implements fmt.Stringer.
func (k RegionKind) String() string {
	switch k {
	case KindCircle:
		return "circle"
	case KindNetRange:
		return "netrange"
	default:
		return "tiles"
	}
}

// NetworkRegion is the opaque payload of a KindNetRange safe region,
// implemented by the road-network backend (internal/netmpn). core needs
// only the operations the engine and wire layers perform on any region:
// the escape test, a content-equality test (SafeRegion.Equal), and the
// wire encoding. Implementations must be immutable once published in
// a Plan.
type NetworkRegion interface {
	// ContainsPoint reports whether the planar point p — snapped onto the
	// backend's road network — lies inside the region.
	ContainsPoint(p geom.Point) bool
	// EqualRegion reports whether another payload has the same wire
	// content, so the two encode to the same bytes. Used by
	// SafeRegion.Equal; pointer-identical payloads are equal without
	// being asked.
	EqualRegion(other NetworkRegion) bool
	// AppendEncode appends the region's wire encoding (without any outer
	// kind tag) to buf and returns it.
	AppendEncode(buf []byte) []byte
}

// SafeRegion is one user's safe region. Exactly one of Circle/Tiles/Net
// is meaningful depending on Kind. Tile regions may mix tile sizes: the
// divide-and-conquer verification inserts quarter tiles down to the
// configured split level.
type SafeRegion struct {
	Kind   RegionKind
	Circle geom.Circle
	Tiles  []geom.Rect
	Net    NetworkRegion
}

// NetRegion constructs a road-network safe region over a backend payload.
func NetRegion(n NetworkRegion) SafeRegion {
	return SafeRegion{Kind: KindNetRange, Net: n}
}

// CircleRegion constructs a circular safe region.
func CircleRegion(c geom.Point, r float64) SafeRegion {
	return SafeRegion{Kind: KindCircle, Circle: geom.Circle{C: c, R: r}}
}

// TileRegion constructs a tile-based safe region from the given squares.
func TileRegion(tiles ...geom.Rect) SafeRegion {
	return SafeRegion{Kind: KindTiles, Tiles: tiles}
}

// Contains reports whether p lies inside the region. The simulator uses it
// to detect when a user escapes and must contact the server.
func (r SafeRegion) Contains(p geom.Point) bool {
	if r.Kind == KindCircle {
		return r.Circle.Contains(p)
	}
	if r.Kind == KindNetRange {
		return r.Net != nil && r.Net.ContainsPoint(p)
	}
	for _, t := range r.Tiles {
		if t.Contains(p) {
			return true
		}
	}
	return false
}

// Equal reports whether two regions have identical content, so one
// encodes to the same bytes as the other. Tile slices sharing a backing
// array are equal without element comparison — the common case for
// regions a kept plan or a partial regrow carried over verbatim. A
// circle with a NaN field equals nothing, itself included.
func (r SafeRegion) Equal(o SafeRegion) bool {
	if r.Kind != o.Kind {
		return false
	}
	if r.Kind == KindCircle {
		return r.Circle == o.Circle
	}
	if r.Kind == KindNetRange {
		// Kept network regions alias the retained payload, so the pointer
		// fast path covers the steady state.
		if r.Net == o.Net {
			return true
		}
		return r.Net != nil && o.Net != nil && r.Net.EqualRegion(o.Net)
	}
	if len(r.Tiles) != len(o.Tiles) {
		return false
	}
	if len(r.Tiles) == 0 || &r.Tiles[0] == &o.Tiles[0] {
		return true
	}
	for i := range r.Tiles {
		if r.Tiles[i] != o.Tiles[i] {
			return false
		}
	}
	return true
}

// MinDist returns ‖p,R‖min, the minimum distance from p to the region.
func (r SafeRegion) MinDist(p geom.Point) float64 {
	if r.Kind == KindCircle {
		return r.Circle.MinDist(p)
	}
	if r.Kind == KindNetRange {
		// Network regions carry no planar geometry; 0 is the conservative
		// lower bound for every caller of MinDist.
		return 0
	}
	d := math.Inf(1)
	for _, t := range r.Tiles {
		if v := t.MinDist(p); v < d {
			d = v
			if d == 0 {
				break
			}
		}
	}
	return d
}

// MaxDist returns ‖p,R‖max, the maximum distance from p to the region.
func (r SafeRegion) MaxDist(p geom.Point) float64 {
	if r.Kind == KindCircle {
		return r.Circle.MaxDist(p)
	}
	if r.Kind == KindNetRange {
		// Conservative upper bound; the network backend reasons about its
		// own regions in network distance and never consults this.
		return math.Inf(1)
	}
	d := 0.0
	for _, t := range r.Tiles {
		if v := t.MaxDist(p); v > d {
			d = v
		}
	}
	return d
}

// MaxExtent returns r↑, the maximum distance between the user location u
// and the region boundary (Theorem 3). For circles centered at u this is
// the radius.
func (r SafeRegion) MaxExtent(u geom.Point) float64 {
	return r.MaxDist(u)
}

// IsEmpty reports whether the region covers no area and no point. A tile
// region with zero tiles is empty; circles are never empty (a zero-radius
// circle still contains its center).
func (r SafeRegion) IsEmpty() bool {
	if r.Kind == KindNetRange {
		return r.Net == nil
	}
	return r.Kind == KindTiles && len(r.Tiles) == 0
}

// NumTiles returns the tile count (0 for circles). Exposed for the α-limit
// accounting and the experiment reports.
func (r SafeRegion) NumTiles() int {
	if r.Kind != KindTiles {
		return 0
	}
	return len(r.Tiles)
}

// BoundingRect returns the tight axis-aligned bounding box of the region.
func (r SafeRegion) BoundingRect() geom.Rect {
	if r.Kind == KindCircle {
		return r.Circle.BoundingRect()
	}
	if r.Kind == KindNetRange || len(r.Tiles) == 0 {
		return geom.Rect{}
	}
	b := r.Tiles[0]
	for _, t := range r.Tiles[1:] {
		b = b.Union(t)
	}
	return b
}

// String implements fmt.Stringer.
func (r SafeRegion) String() string {
	switch r.Kind {
	case KindCircle:
		return r.Circle.String()
	case KindNetRange:
		return "netrange"
	default:
		return fmt.Sprintf("tiles(%d)", len(r.Tiles))
	}
}
