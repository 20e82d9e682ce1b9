// Package tileenc implements the compact wire encoding of tile-based safe
// regions (the "lossless compression" of the authors' ICDE'13 work [12]):
// the tag 'T', a version byte, then one of two layouts. Both are exact:
// Decode returns the encoded tiles bit for bit.
//
// Version 2, the lattice layout, serves Tile-MSR regions, whose tiles are
// cells of a δ grid (geom.RectAround) or quadrants of one, halved down to
// a deepest level (Rect.Quadrants). Encode derives δ itself: a side of a
// largest tile, the one centred nearest zero, where rounding moved it
// least. The
// layout holds the box of cells — its first lattice lines and δ as
// float64s, a byte each for its width and height in cells and the deepest
// level — then, as bits, the lattice lines of each column and row of
// cells, each as its distance in float64 steps from a prediction (see
// coder.walk and coder.code), and a quadtree per cell in row-major order:
// "any tile here?" and, above the deepest level, "is this node one
// tile?"; a node that is neither is followed by its four children. Each
// tile's four coordinates are lattice lines it recorded; 30 tiles take
// ~40 bytes.
//
// Version 3, the corner list, takes any tiles: a count, then each tile's
// four float64 coordinates in the given order, 32 bytes a tile. Encode
// writes it only for tile sets Tile-MSR cannot produce: none, overlapping
// tiles, tiles off one structure of δ/2ʲ cells — deeper than level 8,
// wider than 255 cells, or disagreeing on a lattice line — and tiles that
// are not finite with Min ≤ Max, which Decode refuses.
package tileenc

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"slices"

	"mpn/internal/geom"
)

// Version is the lattice layout's version byte.
const Version = 2

const (
	versionCorners = 3
	// The lattice layout's deepest level, widest box in cells, widest
	// offset from its anchor in lattice units, and farthest a lattice line
	// may lie from its prediction in float64 steps before it is written
	// whole.
	maxLevel, maxCells, maxUnits, maxSteps = 8, 255, 1 << 16, 64
)

// Errors returned by Decode.
var (
	ErrCorrupt = errors.New("tileenc: corrupt payload")
	ErrVersion = errors.New("tileenc: unsupported version")
)

// Encode serializes the tiles of a safe region. Encoding an empty region
// yields a valid payload that decodes to an empty region. The same tiles
// in any order encode to the same lattice-layout bytes.
func Encode(tiles []geom.Rect) []byte {
	if buf := encodeLattice(tiles); buf != nil {
		return buf
	}
	buf := binary.AppendUvarint(append(make([]byte, 0, 12+32*len(tiles)), 'T', versionCorners), uint64(len(tiles)))
	for _, t := range tiles {
		buf = appendF(appendF(appendF(appendF(buf, t.Min.X), t.Min.Y), t.Max.X), t.Max.Y)
	}
	return buf
}

// square is a tile in the lattice layout: (x, y) is its lower-left
// lattice unit, j its level.
type square struct{ x, y, j int }

// encodeLattice writes the version-2 layout, or returns nil when the tiles
// do not allow it.
func encodeLattice(tiles []geom.Rect) []byte {
	wmax := 0.0
	for _, t := range tiles {
		if !valid(t) {
			return nil
		}
		wmax = max(wmax, t.Width())
	}
	// Each tile's level j, whose side wmax/2^j is nearest its width; δ, a
	// side of a largest tile, the one whose centre is nearest zero, where
	// rounding moved it least; the anchor, the lowest-leftmost largest
	// tile's corner, so that tile order does not matter. 128 tiles fit on
	// the stack.
	sq, c := make([]square, 0, 128), coder{}
	delta, near, anchor := 0.0, math.Inf(1), geom.Pt(math.Inf(1), 0)
	for _, t := range tiles {
		j, side, w := 0, wmax, t.Width()
		for ; j <= maxLevel && !(w > 0.75*side && w < 1.5*side); j++ {
			side /= 2
		}
		if j > maxLevel {
			return nil
		}
		if j == 0 {
			if t.Min.X < anchor.X || t.Min.X == anchor.X && t.Min.Y < anchor.Y {
				anchor = t.Min
			}
			if m := math.Abs(t.Min.X + t.Max.X); m < near || m == near && w < delta {
				delta, near = w, m
			}
			if h, m := t.Height(), math.Abs(t.Min.Y+t.Max.Y); h > 0.75*wmax && h < 1.5*wmax && (m < near || m == near && h < delta) {
				delta, near = h, m
			}
		}
		c.depth = max(c.depth, j)
		sq = append(sq, square{j: j})
	}
	if len(sq) == 0 {
		return nil
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
	if c.w > maxCells || c.h > maxCells || len(tiles) > 1<<16 {
		return nil
	}
	// ord holds each tile's key<<16 | index, sorted. The key numbers the
	// box's units cell by cell in row-major order and, inside a cell,
	// along a Morton curve (x bit lowest), the order of the quadtree walk;
	// a tile holds keys [key, key+4^(depth−j)). Each tile records its four
	// lattice lines (NaN: none yet); two tiles that disagree on one do not
	// fit the layout.
	ord, l := make([]int, 0, 128), c.lines()
	for i := range l {
		l[i] = math.NaN()
	}
	for i, q := range sq {
		q.x, q.y = q.x-x0, q.y-y0
		sq[i] = q
		ord = append(ord, c.key(q.x, q.y)<<16|i)
		t, n := tiles[i], 1<<(c.depth-q.j)
		for m, v := range [4]float64{t.Min.X, t.Min.Y, t.Max.X, t.Max.Y} {
			k := c.index(m%2, [2]int{q.x, q.y}[m%2]) + m/2*n
			if !math.IsNaN(l[k]) && math.Float64bits(l[k]) != math.Float64bits(v) {
				return nil
			}
			l[k] = v
		}
	}
	slices.Sort(ord)
	for i := 1; i < len(ord); i++ {
		if ord[i]>>16 < ord[i-1]>>16+1<<(2*(c.depth-sq[ord[i-1]&0xffff].j)) {
			return nil // overlaps another tile
		}
	}
	// An axis' first line is the anchor's lattice line unless a tile
	// recorded it; the other lines take their prediction. One allocation,
	// as a line costs a bit or two: the header, the lines' codes, then at
	// most two bits a node — each cell, and four children per level above
	// a tile.
	c.buf = make([]byte, 0, 29+(4*(c.w+c.h)<<c.depth+2*(c.w*c.h+4*len(sq)*c.depth))/8+1)
	c.buf = append(c.buf, 'T', Version)
	for a, o := range [2]float64{anchor.X + float64(float64(x0)*s), anchor.Y + float64(float64(y0)*s)} {
		if k := c.index(a, 0); math.IsNaN(l[k]) {
			l[k] = o
		}
		c.buf = appendF(c.buf, l[c.index(a, 0)])
	}
	c.buf = append(appendF(c.buf, delta), byte(c.w), byte(c.h), byte(c.depth))
	c.pos = 8 * len(c.buf)
	c.walk(l, 0, delta)
	c.walk(l, 1, delta)
	c.cells(sq, ord)
	return c.buf
}

// coder writes the lattice layout's bits to buf, most significant first,
// or, reading, reads them from it; pos counts them, and bad records a read
// past the end or a tile that is not valid. The lattice lines of a box of
// w×h cells 2^depth units a side live in small, or past it in big (see
// lines).
type coder struct {
	buf          []byte
	pos          int
	reading, bad bool
	w, h, depth  int
	small        [512]float64
	big          []float64
	tiles        []geom.Rect
}

// lines returns the lattice lines: for each column, then each row,
// 2^depth+1 lines, low to high. It returns a slice of small rather than
// c keeping one, which would move small to the heap.
func (c *coder) lines() []float64 {
	n := (c.w + c.h) * (1<<c.depth + 1)
	if n <= len(c.small) {
		return c.small[:n]
	}
	if c.big == nil {
		c.big = make([]float64, n)
	}
	return c.big
}

// key returns the key of unit (x, y) of the box (see encodeLattice).
func (c *coder) key(x, y int) int {
	m, mask := 0, 1<<c.depth-1
	for b, u, v := 0, x&mask, y&mask; u|v != 0; b, u, v = b+2, u>>1, v>>1 {
		m |= (u&1)<<b | (v&1)<<(b+1)
	}
	return ((y>>c.depth)*c.w+x>>c.depth)<<(2*c.depth) | m
}

// index returns the index in lines of the lattice line at unit u on axis a.
func (c *coder) index(a, u int) int {
	return (a*c.w+u>>c.depth)*(1<<c.depth+1) + u&(1<<c.depth-1)
}

// walk codes the lattice lines l of axis a after its first in an order in
// which each one's prediction is known: a cell's low line at the last
// cell's high one, its high line δ past its low one, then each other line
// midway between the two around it, as Rect.Quadrants splits a tile.
func (c *coder) walk(l []float64, a int, delta float64) {
	n := 1 << c.depth
	for b := c.index(a, 0); b < c.index(a, [2]int{c.w, c.h}[a]<<c.depth); b += n + 1 {
		if b > c.index(a, 0) {
			c.code(l, b, l[b-1])
		}
		c.code(l, b+n, l[b]+delta)
		for s := n / 2; s > 0; s /= 2 {
			for o := b + s; o < b+n; o += 2 * s {
				c.code(l, o, (l[o-s]+l[o+s])/2)
			}
		}
	}
}

// code writes line i, or reads it, given its prediction p, which a line
// no tile recorded takes: its distance from p in float64 steps (away from
// zero counts up), zig-zagged, in unary, or past maxSteps 2·maxSteps+1
// one-bits and the line's 64 bits.
func (c *coder) code(l []float64, i int, p float64) {
	if math.IsNaN(l[i]) {
		l[i] = p
	}
	d, v, n := int64(math.Float64bits(l[i])-math.Float64bits(p)), uint64(0), uint64(0)
	if !c.reading {
		v = min(uint64(d<<1^d>>63), 2*maxSteps+1)
	}
	for ; n <= 2*maxSteps && c.bit(n < v); n++ {
	}
	if n <= 2*maxSteps {
		l[i] = math.Float64frombits(math.Float64bits(p) + uint64(int64(n>>1)^-int64(n&1)))
		return
	}
	u, w := math.Float64bits(l[i]), uint64(0)
	for k := 63; k >= 0; k-- {
		if c.bit(u>>k&1 != 0) {
			w |= 1 << k
		}
	}
	l[i] = math.Float64frombits(w)
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
		l := c.lines()
		t := geom.Rect{
			Min: geom.Pt(l[c.index(0, x)], l[c.index(1, y)]),
			Max: geom.Pt(l[c.index(0, x)+k], l[c.index(1, y)+k]),
		}
		c.bad = c.bad || !valid(t)
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

// Decode reconstructs the tiles from an Encode payload of either layout.
// Every decoded tile is valid: finite, with Min ≤ Max.
func Decode(data []byte) ([]geom.Rect, error) {
	if len(data) < 2 || data[0] != 'T' {
		return nil, ErrCorrupt
	}
	switch data[1] {
	case versionCorners:
		return decodeCorners(data[2:])
	case Version:
		return decodeLattice(data[2:])
	}
	return nil, ErrVersion
}

func decodeCorners(rest []byte) ([]geom.Rect, error) {
	count, n := binary.Uvarint(rest)
	if n <= 0 || (len(rest)-n)%32 != 0 || count != uint64(len(rest)-n)/32 {
		return nil, ErrCorrupt
	}
	tiles := make([]geom.Rect, count)
	for i := range tiles {
		f := func(k int) float64 { return math.Float64frombits(binary.LittleEndian.Uint64(rest[n+32*i+8*k:])) }
		tiles[i] = geom.Rect{Min: geom.Pt(f(0), f(1)), Max: geom.Pt(f(2), f(3))}
		if !valid(tiles[i]) {
			return nil, fmt.Errorf("%w: tile %d is %v", ErrCorrupt, i, tiles[i])
		}
	}
	return tiles, nil
}

func decodeLattice(rest []byte) ([]geom.Rect, error) {
	if len(rest) < 27 {
		return nil, ErrCorrupt
	}
	f := func(i int) float64 { return math.Float64frombits(binary.LittleEndian.Uint64(rest[8*i:])) }
	x0, y0, delta := f(0), f(1), f(2)
	if !finite(x0) || !finite(y0) || !finite(delta) || delta <= 0 {
		return nil, ErrCorrupt
	}
	w, h := int(rest[24]), int(rest[25])
	c := coder{buf: rest[27:], reading: true, w: w, h: h, depth: int(rest[26])}
	// Every line after an axis' first and every cell cost at least one bit,
	// so a larger box is corruption; so is a deeper tree than Encode
	// writes.
	if w == 0 || h == 0 || c.depth > maxLevel || (w+h)*(1<<c.depth+1)-2+w*h > 8*len(c.buf) {
		return nil, fmt.Errorf("%w: %d×%d cells, depth %d, in %d bytes", ErrCorrupt, w, h, c.depth, len(c.buf))
	}
	l := c.lines()
	l[c.index(0, 0)], l[c.index(1, 0)] = x0, y0
	c.walk(l, 0, delta)
	c.walk(l, 1, delta)
	c.tiles = make([]geom.Rect, 0, w*h)
	c.cells(nil, nil)
	// The last byte's padding is zero and nothing follows it.
	if c.bad || (c.pos+7)/8 != len(c.buf) || c.pos%8 != 0 && c.buf[c.pos/8]<<(c.pos%8) != 0 {
		return nil, fmt.Errorf("%w: %d bits for %d bytes", ErrCorrupt, c.pos, len(c.buf))
	}
	return c.tiles, nil
}

// valid reports whether t's coordinates are finite, with Min ≤ Max.
func valid(t geom.Rect) bool {
	return -math.MaxFloat64 <= min(t.Min.X, t.Min.Y) && t.IsValid() && max(t.Max.X, t.Max.Y) <= math.MaxFloat64
}

func finite(f float64) bool { return math.Abs(f) <= math.MaxFloat64 }
