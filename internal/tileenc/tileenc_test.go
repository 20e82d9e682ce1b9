package tileenc

import (
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"math"
	"math/rand"
	"testing"

	"mpn/internal/geom"
)

// regionLike builds a plausible Tile-MSR output: a spiral of δ tiles around
// a center with some quarter tiles mixed in.
func regionLike(center geom.Point, delta float64, n int, rng *rand.Rand) []geom.Rect {
	tiles := make([]geom.Rect, 0, n)
	for i := 0; i < n; i++ {
		gx := float64(rng.Intn(9) - 4)
		gy := float64(rng.Intn(9) - 4)
		c := geom.Pt(center.X+gx*delta, center.Y+gy*delta)
		side := delta
		if rng.Intn(3) == 0 {
			side = delta / 2
			c = c.Add(geom.Pt(delta/4, -delta/4))
		}
		tiles = append(tiles, geom.RectAround(c, side))
	}
	return tiles
}

// sameTiles reports whether a and b hold the same tiles, bit for bit, as
// multisets.
func sameTiles(a, b []geom.Rect) bool {
	if len(a) != len(b) {
		return false
	}
	key := func(t geom.Rect) [4]uint64 {
		return [4]uint64{math.Float64bits(t.Min.X), math.Float64bits(t.Min.Y), math.Float64bits(t.Max.X), math.Float64bits(t.Max.Y)}
	}
	count := map[[4]uint64]int{}
	for i := range a {
		count[key(a[i])]++
		count[key(b[i])]--
	}
	for _, n := range count {
		if n != 0 {
			return false
		}
	}
	return true
}

// Whatever layout Encode picks, the decoded tiles are the originals.
func TestRoundTripSubsetAndError(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 200; trial++ {
		delta := rng.Float64()*0.01 + 1e-4
		tiles := regionLike(geom.Pt(rng.Float64(), rng.Float64()), delta, 1+rng.Intn(40), rng)
		dec, err := Decode(Encode(tiles))
		if err != nil {
			t.Fatal(err)
		}
		if !sameTiles(dec, tiles) {
			t.Fatalf("trial %d: decoded %v, want %v", trial, dec, tiles)
		}
	}
}

// Re-encoding decoded tiles gives the same bytes.
func TestIdempotence(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 100; trial++ {
		delta := rng.Float64()*0.01 + 1e-4
		tiles := regionLike(geom.Pt(rng.Float64(), rng.Float64()), delta, 1+rng.Intn(30), rng)
		enc := Encode(tiles)
		once, err := Decode(enc)
		if err != nil {
			t.Fatal(err)
		}
		if again := Encode(once); !bytes.Equal(again, enc) {
			t.Fatalf("trial %d: re-encoded %x, want %x", trial, again, enc)
		}
	}
}

func TestEmptyRegion(t *testing.T) {
	enc := Encode(nil)
	dec, err := Decode(enc)
	if err != nil {
		t.Fatal(err)
	}
	if len(dec) != 0 {
		t.Fatalf("empty region decoded to %d tiles", len(dec))
	}
}

// Planner-shaped regions encode to far less than the paper's three
// float64s a square, and to no more bytes than the lattice layout took
// when callers passed δ in (70 and 67 bytes).
func TestCompressionBeatsNaive(t *testing.T) {
	for name, c := range map[string]struct {
		tiles []geom.Rect
		max   int
	}{
		"planned": {plannedRegion(t), 70},
		"lattice": {latticeRegion(geom.Pt(0.5, 0.5), 0.003, 3, 2, rand.New(rand.NewSource(3))), 67},
	} {
		enc := len(Encode(c.tiles))
		if naive := 24 * len(c.tiles); 4*enc > naive {
			t.Errorf("%s: %d tiles take %d B, over a quarter of the naive %d B", name, len(c.tiles), enc, naive)
		}
		if enc > c.max {
			t.Errorf("%s: %d tiles take %d B, want at most %d", name, len(c.tiles), enc, c.max)
		}
	}
}

func TestDecodeErrors(t *testing.T) {
	cases := [][]byte{
		nil,
		{},
		{'X', Version},
		{'T', Version, 1, 2, 3}, // truncated header
		{'T', versionCorners},   // no count
	}
	for i, c := range cases {
		if _, err := Decode(c); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("case %d: want ErrCorrupt, got %v", i, err)
		}
	}
	// Truncated tile stream.
	enc := Encode([]geom.Rect{geom.RectAround(geom.Pt(0, 0), 1)})
	if _, err := Decode(enc[:len(enc)-1]); err == nil {
		t.Fatal("truncated stream accepted")
	}
	// Garbage count.
	bad := append(Encode(nil)[:2], 0xff, 0xff, 0xff, 0xff)
	if _, err := Decode(bad); err == nil {
		t.Fatal("garbage count accepted")
	}
}

// Only the lattice layout and the corner list decode; the retired offset
// layout (version 1) is as unknown as any other version.
func TestVersionGuard(t *testing.T) {
	v1, _ := hex.DecodeString("5401cdccccccccccdc3fcdccccccccccdc3f9a9999999999b93e010000808008808008")
	for _, v := range []byte{0, 1, versionCorners + 1, 'T'} {
		enc := append([]byte(nil), v1...)
		enc[1] = v
		if _, err := Decode(enc); err != ErrVersion {
			t.Fatalf("version %d: want ErrVersion got %v", v, err)
		}
	}
}

// A corner-list tile with a NaN or ±Inf coordinate, or with Min > Max, is
// corruption.
func TestCornerListNonFinite(t *testing.T) {
	a := geom.RectAround(pt(0.5, 0.5), 0.1)
	for name, tile := range map[string]geom.Rect{
		"NaN min x":     {Min: pt(math.NaN(), 0), Max: a.Max},
		"NaN max y":     {Min: a.Min, Max: pt(1, math.NaN())},
		"+Inf max x":    {Min: a.Min, Max: pt(math.Inf(1), 1)},
		"-Inf min y":    {Min: pt(0, math.Inf(-1)), Max: a.Max},
		"min x > max x": {Min: pt(0.6, 0.4), Max: pt(0.5, 0.6)},
		"min y > max y": {Min: pt(0.4, 0.6), Max: pt(0.6, 0.5)},
	} {
		enc := Encode([]geom.Rect{a, tile})
		if enc[1] != versionCorners {
			t.Errorf("%s: took layout %d, want the corner list", name, enc[1])
		}
		if _, err := Decode(enc); !errors.Is(err, ErrCorrupt) {
			t.Errorf("%s: want ErrCorrupt, got %v", name, err)
		}
	}
}

// A corner-list count that disagrees with the payload's length is
// corruption, refused before the tile slice is allocated.
func TestCornerListCountBound(t *testing.T) {
	valid := Encode([]geom.Rect{{Max: pt(1, 1)}, {Max: pt(1, 1)}})
	body := valid[3:]
	for _, count := range []uint64{0, 1, 3, uint64(len(body)), math.MaxUint32, 1<<59 + 2} {
		bad := append(binary.AppendUvarint([]byte{'T', versionCorners}, count), body...)
		var err error
		if allocs := testing.AllocsPerRun(10, func() { _, err = Decode(bad) }); allocs != 0 {
			t.Errorf("count %d over %d bytes: %v allocations before refusing", count, len(body), allocs)
		}
		if !errors.Is(err, ErrCorrupt) {
			t.Errorf("count %d over %d bytes: want ErrCorrupt, got %v", count, len(body), err)
		}
	}
	if _, err := Decode(valid[:len(valid)-1]); !errors.Is(err, ErrCorrupt) {
		t.Errorf("a short last tile: want ErrCorrupt, got %v", err)
	}
}

// TestCornerListGoldenBytes pins one corner-list payload: a tile inside
// a larger one, each as its four float64 coordinates in the given order.
func TestCornerListGoldenBytes(t *testing.T) {
	tiles := []geom.Rect{{Min: pt(-0.75, 0.25), Max: pt(-0.25, 0.75)}, {Min: pt(-1, 0), Max: pt(0, 1)}}
	const want = "5403" + "02" + // corner list, two tiles
		"000000000000e8bf" + "000000000000d03f" + "000000000000d0bf" + "000000000000e83f" + // (−0.75, 0.25)–(−0.25, 0.75)
		"000000000000f0bf" + "0000000000000000" + "0000000000000000" + "000000000000f03f" // (−1, 0)–(0, 1)
	enc := Encode(tiles)
	if got := hex.EncodeToString(enc); got != want {
		t.Fatalf("corner list\n got %s\nwant %s", got, want)
	}
	dec, err := Decode(enc)
	if err != nil || len(dec) != 2 || dec[0] != tiles[0] || dec[1] != tiles[1] {
		t.Fatalf("decoded %v, %v; want %v in order", dec, err, tiles)
	}
}

func BenchmarkEncode30Tiles(b *testing.B) {
	rng := rand.New(rand.NewSource(4))
	tiles := regionLike(geom.Pt(0.5, 0.5), 0.003, 30, rng)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Encode(tiles)
	}
}

func BenchmarkDecode30Tiles(b *testing.B) {
	rng := rand.New(rand.NewSource(5))
	enc := Encode(regionLike(geom.Pt(0.5, 0.5), 0.003, 30, rng))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Decode(enc); err != nil {
			b.Fatal(err)
		}
	}
}
