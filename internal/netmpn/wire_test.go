package netmpn

import (
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"mpn/internal/core"
	"mpn/internal/geom"
)

// plannedRegions walks groups of three network walkers through an
// incremental Max plan stream, as the net_road workload does, and returns
// every region the planner handed out, each with its member's snapped
// location, plus one region of a large radius and a whole-network one.
func plannedRegions(tb testing.TB) (regions []*Region, at []geom.Point) {
	b := testBackend(tb, 9, BackendConfig{Aggregate: Max})
	s := b.Server()
	ws := core.NewWorkspace()
	for g := int64(0); g < 3; g++ {
		walkers := make([]*Walker, 3)
		for i := range walkers {
			w, err := NewWalker(s.net, 0.004, 10*g+int64(i))
			if err != nil {
				tb.Fatal(err)
			}
			walkers[i] = w
		}
		var st core.PlanState
		users := make([]geom.Point, len(walkers))
		for step := 0; step < 40; step++ {
			for i, w := range walkers {
				users[i] = s.posPoint(w.Step())
			}
			plan, _, err := b.PlanNet(ws, core.PlanRequest{Kind: core.KindNetRange, Users: users, State: &st})
			if err != nil {
				tb.Fatal(err)
			}
			for i, r := range plan.Regions {
				regions = append(regions, r.Net.(*Region))
				at = append(at, s.posPoint(b.Snap(users[i])))
			}
		}
	}
	center := NodePos(s.net.NumNodes() / 2)
	rr := s.rangeRegion(center, 0.3)
	regions = append(regions, s.exportRegion(&rr, s.posPoint(center)), &Region{Radius: math.Inf(1)})
	at = append(at, s.posPoint(center), geom.Pt(0.5, 0.5))
	return regions, at
}

// TestRegionWireRoundTrip checks that every region of a planned stream
// survives the wire with its segments bit for bit, re-encodes to the same
// bytes and answers containment like the original, and that the decoder
// refuses each way a payload can be corrupt.
func TestRegionWireRoundTrip(t *testing.T) {
	regions, at := plannedRegions(t)
	rng := rand.New(rand.NewSource(5))
	shared, big := 0, false
	for i, nr := range regions {
		enc := nr.AppendEncode(nil)
		dec, err := DecodeRegion(enc)
		if err != nil {
			t.Fatalf("region %d: %v", i, err)
		}
		if !slices.EqualFunc(dec.Segs, nr.Segs, sameSeg) || dec.whole() != nr.whole() || !dec.EqualRegion(nr) {
			t.Fatalf("region %d: decode differs from the planner's region", i)
		}
		if again := dec.AppendEncode(nil); !bytes.Equal(again, enc) {
			t.Fatalf("region %d: re-encoding changed the bytes", i)
		}
		if !dec.ContainsPoint(at[i]) {
			t.Fatalf("region %d: decoded region does not contain its member's snapped location", i)
		}
		for trial := 0; trial < 50; trial++ {
			p := geom.Pt(rng.Float64(), rng.Float64())
			if len(nr.Segs) > 0 && trial%2 == 0 {
				s := nr.Segs[rng.Intn(len(nr.Segs))]
				p = s.A.Add(s.B.Sub(s.A).Scale(rng.Float64()))
			}
			if dec.ContainsPoint(p) != nr.ContainsPoint(p) {
				t.Fatalf("region %d: containment disagrees at %v", i, p)
			}
		}
		if len(enc) < 1+1+2*17*len(nr.Segs) {
			shared++
		}
		if len(nr.Segs) > 32 {
			big = true
		}
	}
	if shared == 0 || !big {
		t.Fatalf("stream lacks a shared junction (%d) or a large region (%v)", shared, big)
	}

	// Corruption, at known offsets of a region whose first segment has
	// two distinct endpoints: tag, one header byte, k=0, A (bytes 3–18),
	// B's k at byte 19, then B (bytes 20–35).
	var nr *Region
	for _, r := range regions {
		if len(r.Segs) > 1 && len(r.Segs) < 64 && r.Segs[0].A != r.Segs[0].B {
			nr = r
			break
		}
	}
	if nr == nil {
		t.Fatal("no multi-segment region planned")
	}
	enc := nr.AppendEncode(nil)
	refuse := func(what string, bad []byte) {
		t.Helper()
		if _, err := DecodeRegion(bad); err == nil {
			t.Errorf("%s accepted", what)
		}
	}
	for _, c := range []struct {
		off int
		v   float64
	}{{3, math.NaN()}, {11, math.Inf(1)}, {20, math.Inf(-1)}, {28, math.NaN()}} {
		bad := bytes.Clone(enc)
		binary.LittleEndian.PutUint64(bad[c.off:], math.Float64bits(c.v))
		refuse("coordinate "+hex.EncodeToString(bad[c.off:c.off+8]), bad)
	}
	forward := bytes.Clone(enc)
	forward[19] = 2 // only point 0 has been sent
	refuse("forward reference", forward)
	whole := bytes.Clone(enc)
	whole[1] |= 1
	refuse("whole flag with segments", whole)
	for n := 0; n < len(enc); n++ {
		refuse("truncation", enc[:n])
	}
	refuse("trailing byte", append(bytes.Clone(enc), 0))
	refuse("trailing byte after a whole region", []byte{'N', 1, 0})
	refuse("padded header", append([]byte{'N', enc[1] | 0x80, 0}, enc[2:]...))
	refuse("forged count", append([]byte{'N', 0xfe, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01}, enc[2:]...))
	twice := append([]byte{'N', 2}, enc[2:19]...) // point 0, then itself again as point 1
	refuse("a point sent twice", append(append(twice, 1), enc[3:19]...))
}

// TestNetRegionGoldenBytes pins the network region layout: a single
// segment takes 36 bytes, a shared junction is sent once and referenced
// after, −0 and +0 are different points, and a whole region is two bytes.
func TestNetRegionGoldenBytes(t *testing.T) {
	f := func(v float64) string {
		return hex.EncodeToString(binary.LittleEndian.AppendUint64(nil, math.Float64bits(v)))
	}
	pt := func(x, y float64) string { return f(x) + f(y) }
	negZero := math.Copysign(0, -1)
	for _, c := range []struct {
		name string
		r    *Region
		want []string
	}{
		{"single segment", &Region{Radius: 0.1, Segs: []Segment{{geom.Pt(0.25, 0.5), geom.Pt(0.75, 0.5)}}},
			[]string{"4e", "02", "00", pt(0.25, 0.5), "01", pt(0.75, 0.5)}},
		{"shared junction", &Region{Radius: 0.1, Segs: []Segment{
			{geom.Pt(0.25, 0.5), geom.Pt(0.5, 0.5)}, {geom.Pt(0.5, 0.5), geom.Pt(0.5, 0.75)}}},
			[]string{"4e", "04", "00", pt(0.25, 0.5), "01", pt(0.5, 0.5), "01", "02", pt(0.5, 0.75)}},
		{"boundary node and signed zero", &Region{Radius: 0.1, Segs: []Segment{
			{geom.Pt(0, 0.5), geom.Pt(0, 0.5)}, {geom.Pt(negZero, 0.5), geom.Pt(0, 0.5)}}},
			[]string{"4e", "04", "00", pt(0, 0.5), "00", "01", pt(negZero, 0.5), "00"}},
		{"whole", &Region{Center: geom.Pt(0.5, 0.5), Radius: math.Inf(1)}, []string{"4e", "01"}},
	} {
		enc := c.r.AppendEncode(nil)
		if got, want := hex.EncodeToString(enc), strings.Join(c.want, ""); got != want {
			t.Errorf("%s:\n got %s\nwant %s", c.name, got, want)
			continue
		}
		dec, err := DecodeRegion(enc)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if !slices.EqualFunc(dec.Segs, c.r.Segs, sameSeg) || dec.whole() != c.r.whole() || dec.Center != (geom.Point{}) {
			t.Errorf("%s: decoded %+v", c.name, dec)
		}
	}
	if n := len((&Region{Segs: []Segment{{geom.Pt(0.25, 0.5), geom.Pt(0.75, 0.5)}}}).AppendEncode(nil)); n != 36 {
		t.Errorf("single segment takes %d bytes, want 36", n)
	}
}

// TestEqualRegionIsWireEquality: two regions are EqualRegion exactly
// when they encode to the same bytes — over consecutive planned regions
// and over pairs that differ only in what the wire leaves out (center,
// radius) or in what it keeps (the sign of a zero, wholeness).
func TestEqualRegionIsWireEquality(t *testing.T) {
	regions, _ := plannedRegions(t)
	seg := []Segment{{geom.Pt(0, 0.5), geom.Pt(0.25, 0.5)}}
	negZero := []Segment{{geom.Pt(math.Copysign(0, -1), 0.5), geom.Pt(0.25, 0.5)}}
	pairs := [][2]*Region{
		{{Center: geom.Pt(0.1, 0.1), Radius: 0.2, Segs: seg}, {Radius: 0.3, Segs: seg}},
		{{Radius: 0.2, Segs: seg}, {Radius: 0.2, Segs: negZero}},
		{{Radius: 0.2}, {Radius: math.Inf(1)}},
		{{Radius: math.Inf(1), Center: geom.Pt(0.1, 0.1)}, {Radius: math.Inf(1)}},
	}
	for i := 1; i < len(regions); i++ {
		pairs = append(pairs, [2]*Region{regions[i-1], regions[i]}, [2]*Region{regions[i], regions[i]})
	}
	equal := 0
	for i, p := range pairs {
		same := bytes.Equal(p[0].AppendEncode(nil), p[1].AppendEncode(nil))
		if p[0].EqualRegion(p[1]) != same || p[1].EqualRegion(p[0]) != same {
			t.Fatalf("pair %d: EqualRegion disagrees with the encodings (same bytes %v)", i, same)
		}
		if same && p[0] != p[1] {
			equal++
		}
	}
	if equal < 2 {
		t.Fatalf("only %d distinct pairs compared equal", equal)
	}
}

// FuzzDecodeRegion: DecodeRegion never panics, and every payload it
// accepts re-encodes to the same bytes. The seeds are planned regions, a
// whole region, forged counts and a padded varint. CI runs a short
// `go test -fuzz=FuzzDecodeRegion` smoke on top of the seeds.
func FuzzDecodeRegion(f *testing.F) {
	regions, _ := plannedRegions(f)
	for i, r := range regions {
		if i%40 == 0 || i == len(regions)-2 || i == len(regions)-1 {
			f.Add(r.AppendEncode(nil))
		}
	}
	f.Add([]byte{})
	f.Add([]byte{'N'})
	f.Add([]byte{'N', 0})
	f.Add([]byte{'N', 3})
	f.Add([]byte{'N', 0x80, 0})
	f.Add([]byte{'N', 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01})
	f.Add([]byte{'N', 2, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		r, err := DecodeRegion(data)
		if err != nil {
			return
		}
		if again := r.AppendEncode(nil); !bytes.Equal(again, data) {
			t.Fatalf("accepted %x re-encodes as %x", data, again)
		}
	})
}
