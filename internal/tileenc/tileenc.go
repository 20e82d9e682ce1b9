// Package tileenc implements the compact wire encoding of tile-based safe
// regions used for the communication-cost accounting of the experiments
// (the "lossless compression" of the authors' preliminary ICDE'13 work
// [12], reproduced here as a grid/varint codec).
//
// A tile region produced by Tile-MSR consists of axis-aligned squares
// whose side lengths are δ/2^j for a handful of levels j. The codec
// quantizes all coordinates onto a lattice of pitch δ·2⁻¹⁶ anchored at the
// region's bounding-box corner and encodes each tile as three varints
// (side length and zig-zag position deltas in lattice units) after a
// 25-byte header. Quantization is inward (Min is rounded up, Max down), so
// the decoded region is always a subset of the original — the safe-region
// guarantee is preserved — with per-coordinate error below δ·2⁻¹⁶. The
// codec is idempotent: encoding a decoded region reproduces it exactly.
//
// A typical tile costs 3–6 bytes versus 24 bytes (three float64 values)
// for the naive representation the paper charges to the Circle method.
package tileenc

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"sort"

	"mpn/internal/geom"
)

// Version identifies the wire format.
const Version = 1

// pitchShift fixes the lattice pitch at delta·2^-pitchShift.
const pitchShift = 16

// Errors returned by Decode.
var (
	ErrCorrupt = errors.New("tileenc: corrupt payload")
	ErrVersion = errors.New("tileenc: unsupported version")
)

// Encode serializes the tiles of a safe region. delta is the base tile
// side length δ of the producing Tile-MSR run; it anchors the quantization
// lattice. Encoding an empty region yields a valid payload that decodes to
// an empty region.
func Encode(tiles []geom.Rect, delta float64) []byte {
	if delta <= 0 || math.IsInf(delta, 0) || math.IsNaN(delta) {
		delta = 1
	}
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
	buf = append(buf, 'T', Version)
	var scratch [8]byte
	binary.LittleEndian.PutUint64(scratch[:], math.Float64bits(origin.X))
	buf = append(buf, scratch[:]...)
	binary.LittleEndian.PutUint64(scratch[:], math.Float64bits(origin.Y))
	buf = append(buf, scratch[:]...)
	binary.LittleEndian.PutUint64(scratch[:], math.Float64bits(pitch))
	buf = append(buf, scratch[:]...)
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

// Decode reconstructs the (inward-quantized) tiles from an Encode payload.
func Decode(data []byte) ([]geom.Rect, error) {
	if len(data) < 2 || data[0] != 'T' {
		return nil, ErrCorrupt
	}
	if data[1] != Version {
		return nil, ErrVersion
	}
	rest := data[2:]
	if len(rest) < 24 {
		return nil, ErrCorrupt
	}
	ox := math.Float64frombits(binary.LittleEndian.Uint64(rest[0:8]))
	oy := math.Float64frombits(binary.LittleEndian.Uint64(rest[8:16]))
	pitch := math.Float64frombits(binary.LittleEndian.Uint64(rest[16:24]))
	if pitch <= 0 || math.IsNaN(pitch) || math.IsInf(pitch, 0) {
		return nil, ErrCorrupt
	}
	rest = rest[24:]

	count, n := binary.Uvarint(rest)
	if n <= 0 {
		return nil, ErrCorrupt
	}
	rest = rest[n:]
	if count > uint64(len(rest))+1 {
		// Each tile needs at least 4 varint bytes; a wildly large count is
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
		if pw < 0 || ph < 0 {
			return nil, fmt.Errorf("%w: negative tile extent", ErrCorrupt)
		}
		tiles = append(tiles, geom.Rect{
			Min: geom.Pt(ox+float64(px)*pitch, oy+float64(py)*pitch),
			Max: geom.Pt(ox+float64(px+pw)*pitch, oy+float64(py+ph)*pitch),
		})
	}
	return tiles, nil
}
