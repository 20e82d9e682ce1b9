package tileenc

import (
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"math"
	"math/rand"
	"testing"

	"mpn/internal/core"
	"mpn/internal/geom"
)

// latticeRegion builds tiles the way Tile-MSR does: cells of the δ grid
// centred on c (geom.RectAround), some split into quadrants
// (Rect.Quadrants) down to level splits, with random quadrants dropped.
func latticeRegion(c geom.Point, delta float64, rings, splits int, rng *rand.Rand) []geom.Rect {
	var tiles []geom.Rect
	var split func(r geom.Rect, level int)
	split = func(r geom.Rect, level int) {
		if level == splits || rng.Intn(3) > 0 {
			tiles = append(tiles, r)
			return
		}
		for _, q := range r.Quadrants() {
			if rng.Intn(4) > 0 {
				split(q, level+1)
			}
		}
	}
	for gy := -rings; gy <= rings; gy++ {
		for gx := -rings; gx <= rings; gx++ {
			if (gx != 0 || gy != 0) && rng.Intn(3) == 0 {
				continue
			}
			split(geom.RectAround(geom.Pt(c.X+float64(gx)*delta, c.Y+float64(gy)*delta), delta), 0)
		}
	}
	return tiles
}

// checkLattice asserts that enc is a lattice-layout payload of tiles that
// decodes to the original tiles bit for bit, and returns the decoded
// tiles.
func checkLattice(t *testing.T, tiles []geom.Rect, enc []byte) []geom.Rect {
	t.Helper()
	if len(enc) < 2 || enc[1] != Version {
		t.Fatalf("%d tiles took layout %d, want the lattice layout", len(tiles), enc[1])
	}
	dec, err := Decode(enc)
	if err != nil {
		t.Fatal(err)
	}
	if !sameTiles(dec, tiles) {
		t.Fatalf("decoded %v, want %v", dec, tiles)
	}
	return dec
}

// Lattice regions anywhere, on an axis or at the origin included, take
// the lattice layout, decode exactly, and encode to the same bytes in any
// tile order.
func TestLatticeLayoutRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 400; trial++ {
		delta := rng.Float64()*0.01 + 1e-4
		c := geom.Pt(rng.Float64()*100-50, rng.Float64()*100-50)
		switch trial % 4 {
		case 1: // on the y axis
			c.X = (rng.Float64() - 0.5) * delta
		case 2: // on the x axis
			c.Y = float64(rng.Intn(3)-1) * delta / 2
		case 3: // at the origin
			c = geom.Pt(0, (rng.Float64()-0.5)*delta)
		}
		tiles := latticeRegion(c, delta, rng.Intn(5), rng.Intn(4), rng)
		enc := Encode(tiles)
		checkLattice(t, tiles, enc)
		rng.Shuffle(len(tiles), func(i, j int) { tiles[i], tiles[j] = tiles[j], tiles[i] })
		if again := Encode(tiles); !bytes.Equal(again, enc) {
			t.Fatalf("trial %d: reordered tiles encode differently", trial)
		}
	}
}

// TestLatticeLayoutGoldenBytes pins one lattice-layout payload: a δ = 0.5
// cell with its lower-left corner at the origin, and the cell east of it
// split into its whole lower-left quadrant and two level-2 tiles of its
// upper-right quadrant.
func TestLatticeLayoutGoldenBytes(t *testing.T) {
	cell := geom.RectAround(geom.Pt(0.25, 0.25), 0.5)
	q := geom.RectAround(geom.Pt(0.75, 0.25), 0.5).Quadrants()
	qq := q[2].Quadrants()
	tiles := []geom.Rect{qq[3], cell, q[0], qq[1]}
	const want = "5402" +
		"0000000000000000" + "0000000000000000" + "000000000000e03f" + // origin (0, 0), δ 0.5
		"02" + "01" + "02" + // 2×1 cells, depth 2
		"000764c0" // nine x and four y lattice lines at their predictions (0 each), then the cells 11 | 10 [11] [0] [0] [10 [0] [1] [1] [0]], padded to 32 bits
	enc := Encode(tiles)
	if got := hex.EncodeToString(enc); got != want {
		t.Fatalf("lattice payload\n got %s\nwant %s", got, want)
	}
	checkLattice(t, tiles, enc)
}

// Tile sets Tile-MSR cannot produce take the corner list; tiles off the
// lattice's spacing, whose lines are written whole, do not.
func TestLatticeFallback(t *testing.T) {
	a := geom.RectAround(geom.Pt(0.5, 0.5), 0.1)
	for name, tiles := range map[string][]geom.Rect{
		"empty":          nil,
		"duplicate":      {a, a},
		"overlap":        {a, geom.RectAround(geom.Pt(0.52, 0.5), 0.05)},
		"point":          {{Min: geom.Pt(0.5, 0.5), Max: geom.Pt(0.5, 0.5)}},
		"wide":           {a, geom.RectAround(geom.Pt(26.1, 0.5), 0.1)},
		"too deep":       {a, geom.RectAround(geom.Pt(0.6+0.1/1024, 0.5), 0.1/512)},
		"edges disagree": {a, {Min: geom.Pt(math.Nextafter(a.Min.X, 1), a.Max.Y), Max: geom.Pt(a.Max.X, a.Max.Y+0.1)}},
	} {
		enc := Encode(tiles)
		if enc[1] != versionCorners {
			t.Errorf("%s: got layout %d, want the corner list", name, enc[1])
		}
		if dec, err := Decode(enc); err != nil || !sameTiles(dec, tiles) {
			t.Errorf("%s: decoded %v, %v; want %v", name, dec, err, tiles)
		}
	}
	for name, tiles := range map[string][]geom.Rect{
		"off grid":   {a, geom.RectAround(geom.Pt(0.63, 0.5), 0.1)},
		"255 cells":  {a, geom.RectAround(geom.Pt(25.9, 0.5), 0.1)},
		"level 8":    {a, geom.RectAround(geom.Pt(0.6+0.1/512, 0.5), 0.1/256)},
		"lone small": {geom.RectAround(geom.Pt(0.5, 0.5), 0.1/512)},
	} {
		t.Run(name, func(t *testing.T) { checkLattice(t, tiles, Encode(tiles)) })
	}
}

func TestLatticeDecodeErrors(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	valid := Encode(latticeRegion(pt(0.5, 0.5), 0.01, 2, 2, rng))
	header := func(w, h uint64, depth byte) []byte {
		b := append([]byte(nil), valid[:26]...)
		b = binary.AppendUvarint(b, w)
		b = binary.AppendUvarint(b, h)
		return append(b, depth)
	}
	for name, c := range map[string][]byte{
		"short header":    valid[:20],
		"no depth":        valid[:28],
		"box over bits":   append(header(9, 8, 0), 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff), // 72 cells, 64 bits
		"huge box":        append(header(1<<40, 1<<40, 0), 0xff),
		"too deep":        append(header(1, 1, maxLevel+1), 0xff),
		"too many units":  append(header(16, 16, maxLevel), make([]byte, 32)...), // 256 cells of 4⁸ units
		"truncated tree":  valid[:len(valid)-1],
		"trailing byte":   append(append([]byte(nil), valid...), 0),
		"short line":      append(header(1, 1, 0), bytes.Repeat([]byte{0xff}, 17)...),                              // the x line's 64 bits cut off
		"NaN line":        append(append(header(1, 1, 0), bytes.Repeat([]byte{0xff}, 24)...), 0x20),                // the x line written whole, NaN
		"tile past range": append(appendF(appendF(appendF([]byte{'T', Version}, 1e308), 0), 1e308), 1, 1, 0, 0x20), // x lines 10³⁰⁸, +Inf
		"padding bits":    append(header(1, 1, 0), 0x21),                                                           // lines 0 0, one tile 1, padding 00001
		"zero delta":      append(append(append([]byte(nil), valid[:18]...), make([]byte, 8)...), valid[26:]...),
	} {
		if _, err := Decode(c); !errors.Is(err, ErrCorrupt) {
			t.Errorf("%s: want ErrCorrupt, got %v", name, err)
		}
	}
	if tiles, err := Decode(append(header(1, 1, 0), 0x20)); err != nil || len(tiles) != 1 {
		t.Errorf("one-cell control: got %d tiles, %v", len(tiles), err)
	}
}

// A cell next to a lone quadrant of its split neighbour, or under a lone
// level-2 tile, and a split seed cell, decode to their originals exactly:
// no decoded edge reaches outside the region, on the partly shared sides
// either, and a member at the seed cell's centre stays inside.
func TestLatticeLoneQuadrant(t *testing.T) {
	u, delta := geom.Pt(0.3, 0.7), 0.1
	seed := geom.RectAround(u, delta)
	east := geom.RectAround(geom.Pt(u.X+delta, u.Y), delta).Quadrants()
	north := geom.RectAround(geom.Pt(u.X, u.Y+delta), delta).Quadrants()[1].Quadrants()
	west, q := geom.RectAround(geom.Pt(u.X-delta, u.Y), delta), seed.Quadrants()
	for _, tiles := range [][]geom.Rect{{seed, east[3]}, {seed, east[0]}, {north[3], seed}, {west, q[0], q[2], east[3], north[0]}} {
		dec := checkLattice(t, tiles, Encode(tiles))
		orig, got := core.TileRegion(tiles...), core.TileRegion(dec...)
		for _, o := range tiles {
			for _, p := range []geom.Point{u, o.Min, o.Max, {X: o.Min.X, Y: o.Max.Y}, {X: o.Max.X, Y: o.Min.Y}} {
				if got.Contains(p) != orig.Contains(p) {
					t.Fatalf("%v: inside the original region %v, inside the decoded one %v", p, orig.Contains(p), got.Contains(p))
				}
			}
		}
	}
}

// The lattice benchmarks run on one planned region (plannedRegion).
func BenchmarkEncodeLattice(b *testing.B) {
	tiles := plannedRegion(b)
	b.ReportAllocs()
	for b.Loop() {
		Encode(tiles)
	}
}

func BenchmarkDecodeLattice(b *testing.B) {
	tiles := plannedRegion(b)
	enc := Encode(tiles)
	b.ReportAllocs()
	for b.Loop() {
		if _, err := Decode(enc); err != nil {
			b.Fatal(err)
		}
	}
}
