package netmpn

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"slices"
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
// on both ends of the protocol. The wire carries what ContainsPoint
// reads: whether the region is whole, and Segs.
//
// A Region is immutable after construction; the planner aliases it
// freely across retained plans (kept/partial outcomes) and
// core.SafeRegion.Equal relies on pointer identity for the fast path.
type Region struct {
	// Center is the Euclidean location of the region's network center
	// (the member's position when the region was planned). It stays on
	// the planner side: a decoded region has none.
	Center geom.Point
	// Radius is the network safe radius; +Inf marks the whole-network
	// region of a single-POI data set, which has no Segs. A decoded
	// region has +Inf if it is whole and 0 otherwise.
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

// whole reports whether the region is the whole network.
func (r *Region) whole() bool { return math.IsInf(r.Radius, 1) }

// ContainsPoint reports whether p lies on the covered road intervals
// (within containsEps). Whole-network regions contain every point.
func (r *Region) ContainsPoint(p geom.Point) bool {
	if r.whole() {
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

// EqualRegion reports whether two regions have the same wire content:
// both whole, or neither whole and the same segments bit for bit. So
// equal regions encode to the same bytes; Center and Radius, which the
// wire does not carry, are not compared. Used by core.SafeRegion.Equal
// when pointer identity does not already answer.
func (r *Region) EqualRegion(other core.NetworkRegion) bool {
	o, ok := other.(*Region)
	return ok && r.whole() == o.whole() && (r.whole() || slices.EqualFunc(r.Segs, o.Segs, sameSeg))
}

func sameSeg(a, b Segment) bool { return keyOf(a.A) == keyOf(b.A) && keyOf(a.B) == keyOf(b.B) }

// netRegionTag is the wire type byte of a network range region,
// disjoint from 'C' (circle) and 'T' (tile set).
const netRegionTag = 'N'

// AppendEncode appends the wire form: tag 'N', then the uvarint
// len(Segs)<<1 | whole (a whole region has no segments), then for each
// segment endpoint A and endpoint B as one uvarint k each. A k below the
// count of points sent so far names one of them; k equal to it is a new
// point, whose X and Y follow as little-endian float64s. Points are told
// apart by bit pattern, so decoded segments equal these bit for bit. One
// segment takes 36 bytes. The segment order is the construction order,
// so equal regions encode byte-identically (the property the
// coordinator's per-member encoding cache relies on).
func (r *Region) AppendEncode(buf []byte) []byte {
	buf = append(buf, netRegionTag)
	if r.whole() {
		return append(buf, 1)
	}
	buf = binary.AppendUvarint(buf, uint64(len(r.Segs))<<1)
	sent := make(map[pointKey]int, 8)
	for _, s := range r.Segs {
		for _, p := range [2]geom.Point{s.A, s.B} {
			k := keyOf(p)
			if i, ok := sent[k]; ok {
				buf = binary.AppendUvarint(buf, uint64(i))
				continue
			}
			i := len(sent)
			sent[k] = i
			buf = binary.AppendUvarint(buf, uint64(i))
			buf = binary.LittleEndian.AppendUint64(buf, k[0])
			buf = binary.LittleEndian.AppendUint64(buf, k[1])
		}
	}
	return buf
}

// ErrBadRegionEncoding reports a malformed network-region payload.
var ErrBadRegionEncoding = errors.New("netmpn: bad region encoding")

// DecodeRegion parses an AppendEncode payload. The decoded region
// answers ContainsPoint exactly as the encoder's did. It accepts only
// what AppendEncode writes: a payload with a non-finite coordinate, a
// reference to a point not yet sent, a point sent twice, a whole region
// with segments, a padded varint, missing or trailing bytes is refused,
// and no count is trusted beyond what the remaining bytes can hold.
func DecodeRegion(data []byte) (*Region, error) {
	if len(data) == 0 || data[0] != netRegionTag {
		return nil, ErrBadRegionEncoding
	}
	h, rest, ok := uvarint(data[1:])
	n := h >> 1
	switch {
	case !ok:
		return nil, fmt.Errorf("%w: bad header", ErrBadRegionEncoding)
	case n > uint64(len(rest))/2: // every segment takes two bytes or more
		return nil, fmt.Errorf("%w: %d segments in %d bytes", ErrBadRegionEncoding, n, len(data))
	}
	r := &Region{}
	if h&1 == 1 { // reads no segments: any it claims are trailing bytes
		r.Radius = math.Inf(1)
	} else if n > 0 {
		r.Segs = make([]Segment, n)
	}
	pts := make([]geom.Point, 0, 8)
	seen := make(map[pointKey]bool, 8)
	for i := range r.Segs {
		for _, end := range [2]*geom.Point{&r.Segs[i].A, &r.Segs[i].B} {
			k, tail, ok := uvarint(rest)
			switch {
			case !ok || k > uint64(len(pts)):
				return nil, fmt.Errorf("%w: segment %d: bad point reference", ErrBadRegionEncoding, i)
			case k < uint64(len(pts)):
				*end, rest = pts[k], tail
				continue
			case len(tail) < 16:
				return nil, fmt.Errorf("%w: segment %d: truncated point", ErrBadRegionEncoding, i)
			}
			key := pointKey{binary.LittleEndian.Uint64(tail), binary.LittleEndian.Uint64(tail[8:])}
			p := geom.Pt(math.Float64frombits(key[0]), math.Float64frombits(key[1]))
			// x-x is 0 only for finite x. A point sent twice would
			// re-encode as a reference.
			if p.X-p.X != 0 || p.Y-p.Y != 0 || seen[key] {
				return nil, fmt.Errorf("%w: segment %d: point %v", ErrBadRegionEncoding, i, p)
			}
			seen[key] = true
			pts = append(pts, p)
			*end, rest = p, tail[16:]
		}
	}
	if len(rest) != 0 {
		return nil, fmt.Errorf("%w: %d trailing bytes", ErrBadRegionEncoding, len(rest))
	}
	return r, nil
}

// pointKey is a point's bit pattern: −0 and +0 are different points.
type pointKey [2]uint64

func keyOf(p geom.Point) pointKey {
	return pointKey{math.Float64bits(p.X), math.Float64bits(p.Y)}
}

// uvarint reads one uvarint in its shortest form: a padded one (a final
// zero byte after a continuation) would not re-encode to the same bytes.
func uvarint(data []byte) (uint64, []byte, bool) {
	v, n := binary.Uvarint(data)
	if n <= 0 || (n > 1 && data[n-1] == 0) {
		return 0, nil, false
	}
	return v, data[n:], true
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
