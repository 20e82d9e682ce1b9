package tileenc

import (
	"math/rand"
	"testing"

	"mpn/internal/geom"
)

// FuzzDecode is the native fuzz target over the codec: Decode must never
// panic on arbitrary input — only return an error or well-formed tiles —
// and whatever decodes must survive a re-encode/re-decode round trip
// with its tile count intact. The round trip cannot assert exact
// geometric equality: the re-encode anchors a fresh quantization lattice
// (different δ, origin at the decoded bounding box), so inward rounding
// may legitimately shrink tiles by up to one lattice pitch — only
// decodability, validity, and the count are invariant. The seed corpus
// covers the interesting shapes in both layouts: empty payloads, bare
// headers, single tiles, realistic multi-level regions, an empty region,
// and in the lattice layout a planned region, one cell, quadrants at the
// deepest level, a box larger than its bits and a truncated quadtree. CI
// runs a short `go test -fuzz=FuzzDecode` smoke on top of the seeds.
func FuzzDecode(f *testing.F) {
	rng := rand.New(rand.NewSource(9))
	f.Add([]byte{})
	f.Add([]byte{'T'})
	f.Add([]byte{'T', Version})
	f.Add([]byte{'T', Version + 1, 0, 0})
	f.Add(Encode(nil, 1))
	f.Add(Encode([]geom.Rect{{Min: pt(0.1, 0.1), Max: pt(0.2, 0.2)}}, 0.1))
	f.Add(Encode(regionLike(pt(0.5, 0.5), 0.01, 20, rng), 0.01))
	f.Add(Encode(regionLike(pt(0.25, 0.75), 0.003, 60, rng), 0.003))
	f.Add(encodeOffsets(regionLike(pt(0.5, 0.5), 0.01, 20, rng), 0.01))
	planned := plannedRegion(f)
	f.Add(Encode(planned, maxWidth(planned)))
	f.Add(Encode([]geom.Rect{geom.RectAround(pt(0.5, 0.5), 0.01)}, 0.01))
	deep := latticeRegion(pt(0.5, 0.5), 0.01, 1, 3, rng)
	f.Add(Encode(deep, 0.01))
	huge := appendF(appendF(appendF([]byte{'T', Version}, 0), 0), 1)
	f.Add(append(huge, 16, 16, 0, 0xff)) // 16×16 cells in 8 bits
	lat := Encode(deep, 0.01)
	f.Add(lat[:len(lat)-1])
	f.Fuzz(func(t *testing.T, data []byte) {
		tiles, err := Decode(data)
		if err != nil {
			return
		}
		for _, tile := range tiles {
			if !tile.IsValid() {
				t.Fatalf("decoded invalid tile %v", tile)
			}
		}
		// Round trip on decoded output: re-encoding with a derived delta
		// must stay decodable with the tile count preserved (see the
		// target comment for why exact geometry is not asserted).
		delta := 0.0
		for _, tile := range tiles {
			if w := tile.Width(); w > delta {
				delta = w
			}
		}
		if delta <= 0 {
			delta = 1
		}
		again, err := Decode(Encode(tiles, delta))
		if err != nil {
			t.Fatalf("re-encode of decoded tiles failed to decode: %v", err)
		}
		if len(again) != len(tiles) {
			t.Fatalf("re-encode changed tile count %d → %d", len(tiles), len(again))
		}
	})
}

// Decode must never panic or allocate absurdly on arbitrary input — only
// return an error or a well-formed region. This is a randomized robustness
// sweep predating the FuzzDecode target; it keeps the deterministic
// 20k-trial coverage in every plain `go test` run.
func TestDecodeRandomBytesRobust(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 20000; trial++ {
		n := rng.Intn(120)
		buf := make([]byte, n)
		rng.Read(buf)
		if rng.Intn(2) == 0 && n >= 2 {
			// Bias toward plausible headers to reach deeper code paths.
			buf[0] = 'T'
			buf[1] = Version
			if rng.Intn(2) == 0 {
				buf[1] = versionOffsets
			}
		}
		tiles, err := Decode(buf)
		if err != nil {
			continue
		}
		for _, tile := range tiles {
			if !tile.IsValid() {
				t.Fatalf("decoded invalid tile %v from random input", tile)
			}
		}
	}
	// Random bytes over a valid lattice payload past its 2-byte tag.
	valid := Encode(latticeRegion(pt(0.5, 0.5), 0.01, 3, 2, rng), 0.01)
	if valid[1] != Version {
		t.Fatal("the lattice region took the offset layout")
	}
	for trial := 0; trial < 20000; trial++ {
		buf := append([]byte(nil), valid[:2+rng.Intn(len(valid)-1)]...)
		for k := rng.Intn(4); k >= 0; k-- {
			if i := 2 + rng.Intn(len(buf)-1); i < len(buf) {
				buf[i] = byte(rng.Intn(256))
			}
		}
		tiles, err := Decode(buf)
		if err != nil {
			continue
		}
		for _, tile := range tiles {
			if !tile.IsValid() {
				t.Fatalf("decoded invalid tile %v from a mutated lattice payload", tile)
			}
		}
	}
}

// Mutating single bytes of a valid payload, in either layout, must either
// fail cleanly or produce valid tiles.
func TestDecodeBitflipRobust(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	tiles := regionLike(pt(0.5, 0.5), 0.01, 20, rng)
	for _, valid := range [][]byte{encodeOffsets(tiles, 0.01), Encode(latticeRegion(pt(0.5, 0.5), 0.01, 2, 2, rng), 0.01)} {
		for i := range valid {
			for _, flip := range []byte{0x01, 0x80, 0xff} {
				mut := append([]byte(nil), valid...)
				mut[i] ^= flip
				decoded, err := Decode(mut)
				if err != nil {
					continue
				}
				for _, tile := range decoded {
					if !tile.IsValid() {
						t.Fatalf("layout %d byte %d flip %x: invalid tile %v", valid[1], i, flip, tile)
					}
				}
			}
		}
	}
}
