package tileenc

import (
	"math/rand"
	"testing"

	"mpn/internal/geom"
)

// FuzzDecode is the native fuzz target over the codec: Decode must never
// panic on arbitrary input — only return an error or valid tiles — and
// whatever decodes must re-encode to a payload that decodes to the same
// tiles, bit for bit. The seed corpus covers the interesting shapes in
// both layouts: empty payloads, bare headers, single tiles, realistic
// multi-level regions, an empty region, a corner list of overlapping
// tiles, and in the lattice layout a planned region, one cell, quadrants
// at the deepest level, a box larger than its bits and a truncated
// quadtree. CI runs a short `go test -fuzz=FuzzDecode` smoke on top of
// the seeds.
func FuzzDecode(f *testing.F) {
	rng := rand.New(rand.NewSource(9))
	f.Add([]byte{})
	f.Add([]byte{'T'})
	f.Add([]byte{'T', Version})
	f.Add([]byte{'T', versionCorners + 1, 0, 0})
	f.Add(Encode(nil))
	f.Add(Encode([]geom.Rect{{Min: pt(0.1, 0.1), Max: pt(0.2, 0.2)}}))
	f.Add(Encode(regionLike(pt(0.5, 0.5), 0.01, 20, rng)))
	f.Add(Encode(regionLike(pt(0.25, 0.75), 0.003, 60, rng)))
	f.Add(Encode([]geom.Rect{{Max: pt(1, 1)}, {Min: pt(0.5, 0.5), Max: pt(0.75, 0.75)}}))
	f.Add(Encode(plannedRegion(f)))
	f.Add(Encode([]geom.Rect{geom.RectAround(pt(0.5, 0.5), 0.01)}))
	deep := latticeRegion(pt(0.5, 0.5), 0.01, 1, 3, rng)
	f.Add(Encode(deep))
	huge := appendF(appendF(appendF([]byte{'T', Version}, 0), 0), 1)
	f.Add(append(huge, 16, 16, 0, 0xff)) // 16×16 cells in 8 bits
	lat := Encode(deep)
	f.Add(lat[:len(lat)-1])
	f.Fuzz(func(t *testing.T, data []byte) {
		tiles, err := Decode(data)
		if err != nil {
			return
		}
		for _, tile := range tiles {
			if !valid(tile) {
				t.Fatalf("decoded invalid tile %v", tile)
			}
		}
		again, err := Decode(Encode(tiles))
		if err != nil {
			t.Fatalf("re-encode of decoded tiles failed to decode: %v", err)
		}
		if !sameTiles(again, tiles) {
			t.Fatalf("re-encode changed the tiles %v → %v", tiles, again)
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
		if rng.Intn(2) == 0 && n >= 3 {
			// Bias toward plausible headers to reach deeper code paths: a
			// lattice header, or a corner list whose count fits its length.
			buf[0], buf[1] = 'T', Version
			if rng.Intn(2) == 0 {
				buf = buf[:3+(n-3)/32*32]
				buf[1], buf[2] = versionCorners, byte((n-3)/32)
			}
		}
		tiles, err := Decode(buf)
		if err != nil {
			continue
		}
		for _, tile := range tiles {
			if !valid(tile) {
				t.Fatalf("decoded invalid tile %v from random input", tile)
			}
		}
	}
	// Random bytes over a valid lattice payload past its 2-byte tag.
	lattice := Encode(latticeRegion(pt(0.5, 0.5), 0.01, 3, 2, rng))
	if lattice[1] != Version {
		t.Fatal("the lattice region took the corner list")
	}
	for trial := 0; trial < 20000; trial++ {
		buf := append([]byte(nil), lattice[:2+rng.Intn(len(lattice)-1)]...)
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
			if !valid(tile) {
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
	corners := Encode(append(tiles, tiles[0])) // a duplicate tile
	if corners[1] != versionCorners {
		t.Fatal("a duplicate tile took the lattice layout")
	}
	for _, payload := range [][]byte{corners, Encode(latticeRegion(pt(0.5, 0.5), 0.01, 2, 2, rng))} {
		for i := range payload {
			for _, flip := range []byte{0x01, 0x80, 0xff} {
				mut := append([]byte(nil), payload...)
				mut[i] ^= flip
				decoded, err := Decode(mut)
				if err != nil {
					continue
				}
				for _, tile := range decoded {
					if !valid(tile) {
						t.Fatalf("layout %d byte %d flip %x: invalid tile %v", payload[1], i, flip, tile)
					}
				}
			}
		}
	}
}
