package netmpn

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"sort"

	"mpn/internal/core"
	"mpn/internal/geom"
)

// Region is the exported, self-contained form of a network range safe
// region: the covered road intervals flattened to Euclidean sub-segments.
// Unlike RangeRegion (whose containment test needs the road graph to
// interpret edge ids), a Region answers ContainsPoint from coordinates
// alone, so the same type serves as the planner's core.NetworkRegion
// payload AND as what a wire client decodes — one containment semantics
// on both ends of the protocol.
//
// A Region is immutable after construction; the planner aliases it
// freely across retained plans (kept/partial outcomes) and
// core.SafeRegion.Equal relies on pointer identity for the fast path.
type Region struct {
	// Center is the Euclidean location of the region's network center
	// (the member's position when the region was planned).
	Center geom.Point
	// Radius is the network safe radius; +Inf marks the whole-network
	// region of a single-POI data set.
	Radius float64
	// Segs holds the covered sub-segments in a deterministic order
	// (ascending edge key, then position along the edge).
	Segs []Segment

	// cpos is the planner-side network position of the center and
	// nodeDist the distance from it to every junction within Radius;
	// decoded regions leave both zero (hasPos false). The incremental
	// planner reads a member's network drift from her retained center off
	// them (see drift).
	cpos     Position
	nodeDist map[int]float64
	hasPos   bool
}

// Segment is one covered sub-segment of a road edge.
type Segment struct {
	A, B geom.Point
}

// containsEps is the Euclidean slack of the point-on-segment test: far
// above float error on unit-square coordinates (~1e-16), far below road
// spacing (~2.5e-2) — equivalent to the seed RangeRegion's fractional
// tolerance scaled to distance.
const containsEps = 1e-9

// ContainsPoint reports whether p lies on the covered road intervals
// (within containsEps). Whole-network regions contain every point.
func (r *Region) ContainsPoint(p geom.Point) bool {
	if math.IsInf(r.Radius, 1) {
		return true
	}
	e2 := containsEps * containsEps
	for _, s := range r.Segs {
		if distToSeg2(p, s.A, s.B) <= e2 {
			return true
		}
	}
	return false
}

// distToSeg2 is the squared Euclidean distance from p to segment ab.
func distToSeg2(p, a, b geom.Point) float64 {
	ab := b.Sub(a)
	den := ab.Dot(ab)
	if den == 0 {
		return p.Dist2(a)
	}
	t := p.Sub(a).Dot(ab) / den
	if t < 0 {
		t = 0
	} else if t > 1 {
		t = 1
	}
	return p.Dist2(a.Add(ab.Scale(t)))
}

// EqualRegion reports structural equality (same center, radius, and
// covered segments). Used by core.SafeRegion.Equal when pointer identity
// does not already answer.
func (r *Region) EqualRegion(other core.NetworkRegion) bool {
	o, ok := other.(*Region)
	if !ok {
		return false
	}
	if r == o {
		return true
	}
	if r.Center != o.Center || r.Radius != o.Radius || len(r.Segs) != len(o.Segs) {
		return false
	}
	for i := range r.Segs {
		if r.Segs[i] != o.Segs[i] {
			return false
		}
	}
	return true
}

// netRegionTag is the wire type byte of a network range region,
// disjoint from 'C' (circle) and 'T' (tile set).
const netRegionTag = 'N'

// AppendEncode appends the wire form: tag 'N', center, radius, and the
// covered sub-segments, all little-endian float64s. The segment order is
// the deterministic construction order, so equal regions encode
// byte-identically (the property the coordinator's per-member encoding
// cache relies on).
func (r *Region) AppendEncode(buf []byte) []byte {
	buf = append(buf, netRegionTag)
	buf = appendF64(buf, r.Center.X)
	buf = appendF64(buf, r.Center.Y)
	buf = appendF64(buf, r.Radius)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(r.Segs)))
	for _, s := range r.Segs {
		buf = appendF64(buf, s.A.X)
		buf = appendF64(buf, s.A.Y)
		buf = appendF64(buf, s.B.X)
		buf = appendF64(buf, s.B.Y)
	}
	return buf
}

// WireSize returns the exact encoded length in bytes.
func (r *Region) WireSize() int { return 1 + 3*8 + 4 + 32*len(r.Segs) }

// ErrBadRegionEncoding reports a malformed network-region payload.
var ErrBadRegionEncoding = errors.New("netmpn: bad region encoding")

// DecodeRegion parses an AppendEncode payload. The decoded region
// answers ContainsPoint exactly as the encoder's did; the planner-side
// network position is not carried on the wire.
func DecodeRegion(data []byte) (*Region, error) {
	if len(data) < 1+3*8+4 || data[0] != netRegionTag {
		return nil, ErrBadRegionEncoding
	}
	r := &Region{
		Center: geom.Pt(f64At(data, 1), f64At(data, 9)),
		Radius: f64At(data, 17),
	}
	n := int(binary.LittleEndian.Uint32(data[25:29]))
	if len(data) != 29+32*n {
		return nil, fmt.Errorf("%w: %d segments in %d bytes", ErrBadRegionEncoding, n, len(data))
	}
	// Every coordinate is finite and the radius is not NaN or negative;
	// it may be +Inf, a whole network's (radiusOf's single POI). x-x is 0
	// only for finite x.
	if !(r.Radius >= 0) || r.Center.X-r.Center.X != 0 || r.Center.Y-r.Center.Y != 0 {
		return nil, fmt.Errorf("%w: center %v, radius %v", ErrBadRegionEncoding, r.Center, r.Radius)
	}
	if n > 0 {
		r.Segs = make([]Segment, n)
		for i := range r.Segs {
			off := 29 + 32*i
			s := Segment{
				A: geom.Pt(f64At(data, off), f64At(data, off+8)),
				B: geom.Pt(f64At(data, off+16), f64At(data, off+24)),
			}
			if s.A.X-s.A.X != 0 || s.A.Y-s.A.Y != 0 || s.B.X-s.B.X != 0 || s.B.Y-s.B.Y != 0 {
				return nil, fmt.Errorf("%w: segment %d is %v–%v", ErrBadRegionEncoding, i, s.A, s.B)
			}
			r.Segs[i] = s
		}
	}
	return r, nil
}

func appendF64(buf []byte, v float64) []byte {
	return binary.LittleEndian.AppendUint64(buf, math.Float64bits(v))
}

func f64At(data []byte, off int) float64 {
	return math.Float64frombits(binary.LittleEndian.Uint64(data[off : off+8]))
}

// exportRegion flattens a RangeRegion into its self-contained form. The
// segment order is deterministic: covered edges ascending by (smaller
// endpoint, larger endpoint), intervals in their normalized (sorted,
// merged) order, then any boundary nodes whose incident intervals
// degenerate to nothing, ascending by id.
func (s *Server) exportRegion(rr *RangeRegion, center geom.Point) *Region {
	out := &Region{
		Center:   center,
		Radius:   rr.Radius,
		cpos:     rr.Center,
		nodeDist: rr.nodeDist,
		hasPos:   true,
	}
	if math.IsInf(rr.Radius, 1) {
		return out // contains everything; no segment list needed
	}
	keys := make([][2]int, 0, len(rr.edges))
	for k := range rr.edges {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i][0] != keys[j][0] {
			return keys[i][0] < keys[j][0]
		}
		return keys[i][1] < keys[j][1]
	})
	for _, k := range keys {
		a, b := s.net.Nodes[k[0]].P, s.net.Nodes[k[1]].P
		for _, iv := range rr.edges[k] {
			out.Segs = append(out.Segs, Segment{A: lerp(a, b, iv.Lo), B: lerp(a, b, iv.Hi)})
		}
	}
	// A node at exactly Radius is covered but spans no interval on any
	// incident edge; keep it as a degenerate segment so containment at
	// the boundary matches RangeRegion's node test.
	var boundary []int
	for n, d := range rr.nodeDist {
		if d == rr.Radius {
			boundary = append(boundary, n)
		}
	}
	sort.Ints(boundary)
	for _, n := range boundary {
		p := s.net.Nodes[n].P
		out.Segs = append(out.Segs, Segment{A: p, B: p})
	}
	return out
}

func lerp(a, b geom.Point, t float64) geom.Point {
	return geom.Pt(a.X+(b.X-a.X)*t, a.Y+(b.Y-a.Y)*t)
}
