package tileenc

import (
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

func TestRoundTripSubsetAndError(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 200; trial++ {
		delta := rng.Float64()*0.01 + 1e-4
		tiles := regionLike(geom.Pt(rng.Float64(), rng.Float64()), delta, 1+rng.Intn(40), rng)
		enc := Encode(tiles, delta)
		dec, err := Decode(enc)
		if err != nil {
			t.Fatal(err)
		}
		if len(dec) != len(tiles) {
			t.Fatalf("decoded %d tiles want %d", len(dec), len(tiles))
		}
		pitch := delta / (1 << 16)
		// Every decoded tile must be inside some original tile, within a
		// pitch of the same geometry.
		for _, d := range dec {
			matched := false
			for _, o := range tiles {
				if o.Min.X-1e-12 <= d.Min.X && d.Max.X <= o.Max.X+1e-12 &&
					o.Min.Y-1e-12 <= d.Min.Y && d.Max.Y <= o.Max.Y+1e-12 &&
					math.Abs(o.Min.X-d.Min.X) <= 2*pitch+1e-12 &&
					math.Abs(o.Max.Y-d.Max.Y) <= 2*pitch+1e-12 {
					matched = true
					break
				}
			}
			if !matched {
				t.Fatalf("decoded tile %v matches no original", d)
			}
		}
	}
}

func TestIdempotence(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 100; trial++ {
		delta := rng.Float64()*0.01 + 1e-4
		tiles := regionLike(geom.Pt(rng.Float64(), rng.Float64()), delta, 1+rng.Intn(30), rng)
		once, err := Decode(Encode(tiles, delta))
		if err != nil {
			t.Fatal(err)
		}
		twice, err := Decode(Encode(once, delta))
		if err != nil {
			t.Fatal(err)
		}
		if len(once) != len(twice) {
			t.Fatalf("idempotence: %d vs %d tiles", len(once), len(twice))
		}
		// Set-based comparison: quantization jitter may reorder tiles that
		// tie on a sort key, so match each re-encoded tile to its nearest
		// first-pass tile.
		tol := delta / (1 << 14)
		for _, tw := range twice {
			best := math.Inf(1)
			for _, on := range once {
				d := math.Max(
					math.Max(math.Abs(on.Min.X-tw.Min.X), math.Abs(on.Min.Y-tw.Min.Y)),
					math.Max(math.Abs(on.Max.X-tw.Max.X), math.Abs(on.Max.Y-tw.Max.Y)),
				)
				if d < best {
					best = d
				}
			}
			if best > tol {
				t.Fatalf("re-encoded tile %v drifted by %v", tw, best)
			}
		}
	}
}

func TestEmptyRegion(t *testing.T) {
	enc := Encode(nil, 0.01)
	dec, err := Decode(enc)
	if err != nil {
		t.Fatal(err)
	}
	if len(dec) != 0 {
		t.Fatalf("empty region decoded to %d tiles", len(dec))
	}
}

func TestCompressionBeatsNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	delta := 0.003
	tiles := regionLike(geom.Pt(0.5, 0.5), delta, 30, rng)
	enc := len(Encode(tiles, delta))
	// What the paper charges for squares: three float64 values (center x,
	// center y, side) per tile.
	naive := 24 * len(tiles)
	if enc >= naive {
		t.Fatalf("encoded %dB not smaller than naive %dB", enc, naive)
	}
	// Per-tile marginal cost should be small (≤ 8 bytes amortized).
	marginal := float64(enc-26) / float64(len(tiles))
	if marginal > 8 {
		t.Fatalf("marginal per-tile cost %.1fB too large", marginal)
	}
}

func TestDecodeErrors(t *testing.T) {
	cases := [][]byte{
		nil,
		{},
		{'X', Version},
		{'T', 99},
		{'T', Version, 1, 2, 3}, // truncated header
	}
	for i, c := range cases {
		if _, err := Decode(c); err == nil {
			t.Fatalf("case %d: corrupt payload accepted", i)
		}
	}
	// Truncated tile stream.
	enc := Encode([]geom.Rect{geom.RectAround(geom.Pt(0, 0), 1)}, 1)
	if _, err := Decode(enc[:len(enc)-1]); err == nil {
		t.Fatal("truncated stream accepted")
	}
	// Garbage count.
	bad := Encode(nil, 1)
	bad = append(bad[:26], 0xff, 0xff, 0xff, 0xff)
	if _, err := Decode(bad); err == nil {
		t.Fatal("garbage count accepted")
	}
}

func TestDegenerateDelta(t *testing.T) {
	tiles := []geom.Rect{geom.RectAround(geom.Pt(0.5, 0.5), 0.1)}
	for _, d := range []float64{0, -1, math.Inf(1), math.NaN()} {
		enc := Encode(tiles, d)
		if _, err := Decode(enc); err != nil {
			t.Fatalf("delta=%v: %v", d, err)
		}
	}
}

func TestVersionGuard(t *testing.T) {
	enc := Encode(nil, 1)
	enc[1] = Version + 1
	if _, err := Decode(enc); err != ErrVersion {
		t.Fatalf("want ErrVersion got %v", err)
	}
}

func BenchmarkEncode30Tiles(b *testing.B) {
	rng := rand.New(rand.NewSource(4))
	tiles := regionLike(geom.Pt(0.5, 0.5), 0.003, 30, rng)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Encode(tiles, 0.003)
	}
}

func BenchmarkDecode30Tiles(b *testing.B) {
	rng := rand.New(rand.NewSource(5))
	enc := Encode(regionLike(geom.Pt(0.5, 0.5), 0.003, 30, rng), 0.003)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Decode(enc); err != nil {
			b.Fatal(err)
		}
	}
}
