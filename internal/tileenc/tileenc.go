// Package tileenc implements the compact wire encoding of tile-based safe
// regions (the "lossless compression" of the authors' ICDE'13 work [12]):
// the tag 'T', a version byte, then one of two layouts.
//
// Version 2, the lattice layout, serves Tile-MSR regions, whose tiles are
// cells of a δ grid (geom.RectAround) or quadrants of one, halved down to
// a deepest level (Rect.Quadrants). It holds the box of cells — its
// lower-left corner and δ as float64s, a byte each for its width and
// height in cells and the deepest level — then, as bits, the lattice
// lines of each column and row of cells, each as its distance in float64
// steps from a prediction (see coder.walk), and a quadtree per cell in
// row-major order: "any tile here?" and, above the deepest level, "is this
// node one tile?"; a node that is neither is followed by its four
// children. Every tile decodes to its original bit for bit; 30 tiles take
// ~40 bytes.
//
// Version 1, the offset layout, takes any tiles: a float64 origin and pitch
// δ·2⁻¹⁶, a count, then four zig-zag varints per tile (3–6 bytes), quantized
// inward so that each decoded tile lies inside its original, less than one
// pitch from each edge. Encode writes it for an empty region, for sparse
// tiles (past 32 cells a tile) and for tiles the lattice layout cannot
// hold: overlapping ones, ones not squares of side δ/2ʲ (j ≤ 8) on one
// lattice, and ones that disagree on a lattice line. Either way the tile
// count is unchanged.
package tileenc

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"slices"
	"sort"

	"mpn/internal/geom"
)

// Version is the newest layout Decode reads, the lattice layout.
const Version = 2

const (
	versionOffsets = 1
	// pitchShift fixes the offset layout's pitch at δ·2^-pitchShift.
	pitchShift = 16
	// The lattice layout's deepest level, most lattice lines, widest offset
	// from its anchor in lattice units, and farthest a lattice line may lie
	// from its prediction in float64 steps (past it, the tiles are not on
	// one lattice).
	maxLevel, maxLines, maxUnits, maxSteps = 8, 512, 1 << 16, 64
)

// Errors returned by Decode.
var (
	ErrCorrupt = errors.New("tileenc: corrupt payload")
	ErrVersion = errors.New("tileenc: unsupported version")
)

// Encode serializes the tiles of a safe region. delta is the base tile
// side length δ of the producing Tile-MSR run; it anchors the lattice of
// either layout. Encoding an empty region yields a valid payload that
// decodes to an empty region. The same tiles in any order encode to the
// same lattice-layout bytes.
func Encode(tiles []geom.Rect, delta float64) []byte {
	// A delta whose pitch would underflow is as unusable as a negative one.
	if !(delta >= 0x1p-1000) || math.IsInf(delta, 0) {
		delta = 1
	}
	if buf := encodeLattice(tiles, delta); buf != nil {
		return buf
	}
	return encodeOffsets(tiles, delta)
}

// encodeOffsets writes the version-1 layout.
func encodeOffsets(tiles []geom.Rect, delta float64) []byte {
	pitch := delta / (1 << pitchShift)

	// Lattice origin: the lower-left corner of the bounding box.
	var origin geom.Point
	if len(tiles) > 0 {
		origin = tiles[0].Min
		for _, t := range tiles[1:] {
			origin.X = math.Min(origin.X, t.Min.X)
			origin.Y = math.Min(origin.Y, t.Min.Y)
		}
	}
	// A pitch too fine for the box doubles until every offset fits under
	// Decode's bound.
	for _, t := range tiles {
		for (t.Max.X-origin.X)/pitch > 1<<52 || (t.Max.Y-origin.Y)/pitch > 1<<52 {
			pitch *= 2
		}
	}

	type qtile struct {
		ix, iy, w, h int64
	}
	qs := make([]qtile, 0, len(tiles))
	for _, t := range tiles {
		// Inward quantization keeps the decoded tile inside the original.
		ix := int64(math.Ceil((t.Min.X - origin.X) / pitch))
		iy := int64(math.Ceil((t.Min.Y - origin.Y) / pitch))
		ax := int64(math.Floor((t.Max.X - origin.X) / pitch))
		ay := int64(math.Floor((t.Max.Y - origin.Y) / pitch))
		if ax < ix {
			ax = ix
		}
		if ay < iy {
			ay = iy
		}
		qs = append(qs, qtile{ix: ix, iy: iy, w: ax - ix, h: ay - iy})
	}
	// Position-sorted delta encoding compresses the spiral tile order into
	// small varints.
	sort.Slice(qs, func(i, j int) bool {
		if qs[i].iy != qs[j].iy {
			return qs[i].iy < qs[j].iy
		}
		return qs[i].ix < qs[j].ix
	})

	buf := make([]byte, 0, 32+6*len(qs))
	buf = appendF(appendF(appendF(append(buf, 'T', versionOffsets), origin.X), origin.Y), pitch)
	buf = binary.AppendUvarint(buf, uint64(len(qs)))

	var px, py, pw, ph int64
	for _, q := range qs {
		buf = binary.AppendVarint(buf, q.ix-px)
		buf = binary.AppendVarint(buf, q.iy-py)
		buf = binary.AppendVarint(buf, q.w-pw)
		buf = binary.AppendVarint(buf, q.h-ph)
		px, py, pw, ph = q.ix, q.iy, q.w, q.h
	}
	return buf
}

// square is a tile in the lattice layout: (x, y) is its lower-left
// lattice unit, j its level.
type square struct{ x, y, j int }

// encodeLattice writes the version-2 layout, or returns nil when the tiles
// do not allow it.
func encodeLattice(tiles []geom.Rect, delta float64) []byte {
	// Each tile's level j, whose side δ/2^j is nearest its width, then its
	// corner in lattice units from the anchor — a corner of a largest
	// tile, the lowest-leftmost so that tile order does not matter. 128
	// tiles fit on the stack.
	sq, c := make([]square, 0, 128), coder{}
	top, anchor := maxLevel+1, geom.Point{}
	for _, t := range tiles {
		j, side, w := 0, delta, t.Max.X-t.Min.X
		for ; j <= maxLevel && !(w > 0.75*side && w < 1.5*side); j++ {
			side /= 2
		}
		if j > maxLevel {
			return nil
		}
		c.depth = max(c.depth, j)
		if j < top || j == top && (t.Min.X < anchor.X || t.Min.X == anchor.X && t.Min.Y < anchor.Y) {
			top, anchor = j, t.Min
		}
		sq = append(sq, square{j: j})
	}
	if top > maxLevel {
		return nil // no tiles
	}
	s := math.Ldexp(delta, -c.depth)
	x0, y0, x1, y1 := math.MaxInt, math.MaxInt, math.MinInt, math.MinInt
	for i, t := range tiles {
		fx, fy := math.Round((t.Min.X-anchor.X)/s), math.Round((t.Min.Y-anchor.Y)/s)
		x, y, n := int(fx), int(fy), 1<<(c.depth-sq[i].j)
		if !(math.Abs(fx) < maxUnits && math.Abs(fy) < maxUnits) || (x|y)&(n-1) != 0 {
			return nil
		}
		x0, y0, x1, y1 = min(x0, x), min(y0, y), max(x1, x+n), max(y1, y+n)
		sq[i].x, sq[i].y = x, y
	}
	x0, y0 = x0>>c.depth<<c.depth, y0>>c.depth<<c.depth
	c.w, c.h = (x1-x0-1)>>c.depth+1, (y1-y0-1)>>c.depth+1
	// At one bit a cell, past 32 cells a tile the offset layout is smaller.
	if c.w*c.h > 32*len(tiles) || (c.w+c.h)*(1<<c.depth+1) > maxLines || len(tiles) > 1<<16 {
		return nil
	}
	// ord holds each tile's key<<16 | index, sorted. The key numbers the
	// box's units cell by cell in row-major order and, inside a cell,
	// along a Morton curve (x bit lowest), the order of the quadtree walk;
	// a tile holds keys [key, key+4^(depth−j)). Each tile gives its four
	// lattice lines; two tiles that disagree on one do not fit the layout.
	ord := make([]int, 0, 128)
	var known [maxLines]bool
	for i, q := range sq {
		q.x, q.y = q.x-x0, q.y-y0
		sq[i] = q
		ord = append(ord, c.key(q.x, q.y)<<16|i)
		t, n := tiles[i], 1<<(c.depth-q.j)
		for m, v := range [4]float64{t.Min.X, t.Min.Y, t.Max.X, t.Max.Y} {
			k := c.index(m%2, [2]int{q.x, q.y}[m%2]) + m/2*n
			if known[k] && c.line[k] != v {
				return nil
			}
			c.line[k], known[k] = v, true
		}
	}
	slices.Sort(ord)
	for i := 1; i < len(ord); i++ {
		if ord[i]>>16 < ord[i-1]>>16+1<<(2*(c.depth-sq[ord[i-1]&0xffff].j)) {
			return nil // overlaps another tile
		}
	}
	// The other lines take their prediction, and an axis' first line the
	// anchor's lattice line. One allocation, as a line costs a bit or two:
	// the header, the lines' codes, then at most two bits a node — each
	// cell, and four children per level above a tile.
	c.buf = make([]byte, 0, 29+(4*(c.w+c.h)<<c.depth+2*(c.w*c.h+4*len(sq)*c.depth))/8+1)
	c.buf = append(c.buf, 'T', Version)
	for a, o := range [2]float64{anchor.X + float64(float64(x0)*s), anchor.Y + float64(float64(y0)*s)} {
		if k := c.index(a, 0); !known[k] {
			c.line[k] = o
		}
		c.buf = appendF(c.buf, c.line[c.index(a, 0)])
	}
	c.buf = append(appendF(c.buf, delta), byte(c.w), byte(c.h), byte(c.depth))
	c.pos = 8 * len(c.buf)
	for a := range 2 {
		if !c.walk(a, delta, func(i int, p float64) bool {
			if !known[i] {
				c.line[i] = p
			}
			// The line's code: its distance in float64 steps from its
			// prediction (away from zero counts up), zig-zagged, in unary.
			d := int64(math.Float64bits(c.line[i])) - int64(math.Float64bits(p))
			if d < -maxSteps || d > maxSteps {
				return false
			}
			for v := uint64(d<<1 ^ d>>63); c.bit(v > 0); v-- {
			}
			return true
		}) {
			return nil
		}
	}
	c.cells(sq, ord)
	return c.buf
}

// coder writes the lattice layout's bits to buf, most significant first,
// or, reading, reads them from it; pos counts them, and bad records a read
// past the end or a tile whose corners are out of order. line holds the
// lattice lines of a box of w×h cells 2^depth units a side: for each
// column, then each row, 2^depth+1 lines, low to high.
type coder struct {
	buf          []byte
	pos          int
	reading, bad bool
	w, h, depth  int
	line         [maxLines]float64
	tiles        []geom.Rect
}

// key returns the key of unit (x, y) of the box (see encodeLattice).
func (c *coder) key(x, y int) int {
	m, mask := 0, 1<<c.depth-1
	for b, u, v := 0, x&mask, y&mask; u|v != 0; b, u, v = b+2, u>>1, v>>1 {
		m |= (u&1)<<b | (v&1)<<(b+1)
	}
	return ((y>>c.depth)*c.w+x>>c.depth)<<(2*c.depth) | m
}

// index returns the index in line of the lattice line at unit u on axis a.
func (c *coder) index(a, u int) int {
	return (a*c.w+u>>c.depth)*(1<<c.depth+1) + u&(1<<c.depth-1)
}

// walk visits the lattice lines of axis a after its first in an order in
// which each one's prediction is known: a cell's low line at the last
// cell's high one, its high line δ past its low one, then each other line
// midway between the two around it, as Rect.Quadrants splits a tile. at
// sets line i from its prediction p; false stops the walk.
func (c *coder) walk(a int, delta float64, at func(i int, p float64) bool) bool {
	l, n := c.line[:], 1<<c.depth
	for b := c.index(a, 0); b < c.index(a, [2]int{c.w, c.h}[a]<<c.depth); b += n + 1 {
		if b > c.index(a, 0) && !at(b, l[b-1]) || !at(b+n, l[b]+delta) {
			return false
		}
		for s := n / 2; s > 0; s /= 2 {
			for o := b + s; o < b+n; o += 2 * s {
				if !at(o, (l[o-s]+l[o+s])/2) {
					return false
				}
			}
		}
	}
	return true
}

// cells codes each cell's quadtree in row-major order (see tree).
func (c *coder) cells(sq []square, ord []int) {
	for cell := 0; cell < c.w*c.h; cell++ {
		k := 0
		for k < len(ord) && ord[k]>>(16+2*c.depth) == cell {
			k++
		}
		c.tree(sq, ord[:k], cell<<(2*c.depth), cell%c.w<<c.depth, cell/c.w<<c.depth, 0)
		ord = ord[k:]
	}
}

// tree writes the quadtree of the level-j node at units (x, y) and keys
// from key, whose tiles ord lists, or reads it and appends its tiles:
// "any tile here?" and, above the deepest level, "is this node one tile?"
// — a tile of its level in it is the node; a node that is neither is
// followed by its four children.
func (c *coder) tree(sq []square, ord []int, key, x, y, j int) {
	k := 1 << (c.depth - j)
	if !c.bit(len(ord) > 0) {
		return
	}
	if j < c.depth && !c.bit(!c.reading && sq[ord[0]&0xffff].j == j) {
		for child := 0; child < 4; child++ {
			n, key := 0, key+child*k*k/4
			for n < len(ord) && ord[n]>>16 < key+k*k/4 {
				n++
			}
			c.tree(sq, ord[:n], key, x+child&1*k/2, y+child>>1*k/2, j+1)
			ord = ord[n:]
		}
	} else if c.reading {
		t := geom.Rect{
			Min: geom.Pt(c.line[c.index(0, x)], c.line[c.index(1, y)]),
			Max: geom.Pt(c.line[c.index(0, x)+k], c.line[c.index(1, y)+k]),
		}
		c.bad = c.bad || !t.IsValid()
		c.tiles = append(c.tiles, t)
	}
}

// bit writes b and returns it, or, reading, returns the next bit.
func (c *coder) bit(b bool) bool {
	if c.reading {
		if c.pos >= 8*len(c.buf) {
			c.bad = true
			return false
		}
		b = c.buf[c.pos/8]&(0x80>>(c.pos%8)) != 0
	} else {
		if c.pos%8 == 0 {
			c.buf = append(c.buf, 0)
		}
		if b {
			c.buf[c.pos/8] |= 0x80 >> (c.pos % 8)
		}
	}
	c.pos++
	return b
}

func appendF(buf []byte, f float64) []byte {
	return binary.LittleEndian.AppendUint64(buf, math.Float64bits(f))
}

// Decode reconstructs the tiles from an Encode payload of either version.
func Decode(data []byte) ([]geom.Rect, error) {
	if len(data) < 2 || data[0] != 'T' {
		return nil, ErrCorrupt
	}
	if data[1] != versionOffsets && data[1] != Version {
		return nil, ErrVersion
	}
	if len(data) < 26 || data[1] == Version && len(data) < 29 {
		return nil, ErrCorrupt
	}
	// Both layouts start with three float64s: an origin, then the pitch or
	// δ.
	f := func(i int) float64 { return math.Float64frombits(binary.LittleEndian.Uint64(data[2+8*i:])) }
	ox, oy, scale := f(0), f(1), f(2)
	if !finite(ox) || !finite(oy) || !finite(scale) || scale <= 0 {
		return nil, ErrCorrupt
	}
	if data[1] == versionOffsets {
		return decodeOffsets(data[26:], ox, oy, scale)
	}
	return decodeLattice(data[26:], ox, oy, scale)
}

func decodeOffsets(rest []byte, ox, oy, pitch float64) ([]geom.Rect, error) {
	count, n := binary.Uvarint(rest)
	if n <= 0 {
		return nil, ErrCorrupt
	}
	rest = rest[n:]
	if count > uint64(len(rest))/4 {
		// Each tile needs at least 4 varint bytes; a larger count is
		// corruption, not a huge region.
		return nil, ErrCorrupt
	}

	tiles := make([]geom.Rect, 0, count)
	var px, py, pw, ph int64
	for i := uint64(0); i < count; i++ {
		var vals [4]int64
		for k := 0; k < 4; k++ {
			v, n := binary.Varint(rest)
			if n <= 0 {
				return nil, ErrCorrupt
			}
			vals[k] = v
			rest = rest[n:]
		}
		px += vals[0]
		py += vals[1]
		pw += vals[2]
		ph += vals[3]
		// Encode writes offsets from the box's lower-left corner, each
		// under 2⁵³ pitches, and finite corners.
		if (px|py|pw|ph)>>53 != 0 {
			return nil, fmt.Errorf("%w: tile outside its box", ErrCorrupt)
		}
		t := geom.Rect{
			Min: geom.Pt(ox+float64(px)*pitch, oy+float64(py)*pitch),
			Max: geom.Pt(ox+float64(px+pw)*pitch, oy+float64(py+ph)*pitch),
		}
		if !finite(t.Max.X) || !finite(t.Max.Y) {
			return nil, fmt.Errorf("%w: tile out of range", ErrCorrupt)
		}
		tiles = append(tiles, t)
	}
	return tiles, nil
}

func decodeLattice(rest []byte, x0, y0, delta float64) ([]geom.Rect, error) {
	w, h := int(rest[0]), int(rest[1])
	c := coder{buf: rest[3:], reading: true, w: w, h: h, depth: int(rest[2])}
	// Every line after an axis' first and every cell cost at least one bit,
	// so a larger box is corruption; so are a deeper tree or more lines
	// than Encode writes.
	if w == 0 || h == 0 || c.depth > maxLevel || (w+h)*(1<<c.depth+1) > maxLines ||
		(w+h)*(1<<c.depth+1)-2+w*h > 8*len(c.buf) {
		return nil, fmt.Errorf("%w: %d×%d cells, depth %d, in %d bytes", ErrCorrupt, w, h, c.depth, len(c.buf))
	}
	// An axis' lines span a finite distance, as Encode's offset layout
	// needs of any tiles it is given.
	for a, o := range [2]float64{x0, y0} {
		c.line[c.index(a, 0)] = o
		lo, hi := o, o
		if !c.walk(a, delta, func(i int, p float64) bool {
			v := uint64(0)
			for ; v <= 2*maxSteps && c.bit(false); v++ {
			}
			c.line[i] = math.Float64frombits(uint64(int64(math.Float64bits(p)) + (int64(v>>1) ^ -int64(v&1))))
			lo, hi = min(lo, c.line[i]), max(hi, c.line[i])
			return v <= 2*maxSteps && finite(hi-lo)
		}) {
			return nil, fmt.Errorf("%w: lattice line out of range", ErrCorrupt)
		}
	}
	c.tiles = make([]geom.Rect, 0, w*h)
	c.cells(nil, nil)
	// The last byte's padding is zero and nothing follows it.
	if c.bad || (c.pos+7)/8 != len(c.buf) || c.pos%8 != 0 && c.buf[c.pos/8]<<(c.pos%8) != 0 {
		return nil, fmt.Errorf("%w: %d bits for %d bytes", ErrCorrupt, c.pos, len(c.buf))
	}
	return c.tiles, nil
}

func finite(f float64) bool { return math.Abs(f) <= math.MaxFloat64 }
