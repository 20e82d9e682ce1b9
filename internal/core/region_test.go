package core

import (
	"math"
	"testing"

	"mpn/internal/geom"
)

// fakeNet is a NetworkRegion whose content is one radius; EqualRegion
// counts its calls so the test can tell the pointer fast path from the
// content compare.
type fakeNet struct {
	r     float64
	calls *int
}

func (n *fakeNet) ContainsPoint(geom.Point) bool  { return false }
func (n *fakeNet) AppendEncode(buf []byte) []byte { return buf }
func (n *fakeNet) EqualRegion(o NetworkRegion) bool {
	*n.calls++
	m, ok := o.(*fakeNet)
	return ok && m.r == n.r
}

// TestSafeRegionEqual pins the content compare the wire layer uses to
// decide whether a member needs her region again: every kind compares by
// content, aliased tiles and pointer-identical network payloads take the
// fast path, kinds never match across, and a NaN circle is unequal even
// to itself (the safe direction: it is shipped again).
func TestSafeRegionEqual(t *testing.T) {
	calls := 0
	netA, netA2, netB := &fakeNet{r: 1, calls: &calls}, &fakeNet{r: 1, calls: &calls}, &fakeNet{r: 2, calls: &calls}
	tiles := []geom.Rect{geom.RectAround(geom.Pt(0.5, 0.5), 1), geom.RectAround(geom.Pt(1.5, 0.5), 1)}
	copied := append([]geom.Rect(nil), tiles...)
	moved := append([]geom.Rect(nil), tiles...)
	moved[1].Max.X = math.Nextafter(moved[1].Max.X, 3)
	nan := CircleRegion(geom.Pt(math.NaN(), 0), 1)

	for _, c := range []struct {
		name string
		a, b SafeRegion
		want bool
	}{
		{"circle same", CircleRegion(geom.Pt(1, 2), 3), CircleRegion(geom.Pt(1, 2), 3), true},
		{"circle radius", CircleRegion(geom.Pt(1, 2), 3), CircleRegion(geom.Pt(1, 2), math.Nextafter(3, 4)), false},
		{"circle centre", CircleRegion(geom.Pt(1, 2), 3), CircleRegion(geom.Pt(1, -2), 3), false},
		{"NaN circle with itself", nan, nan, false},
		{"tiles aliased", TileRegion(tiles...), TileRegion(tiles...), true},
		{"tiles element-wise", TileRegion(tiles...), TileRegion(copied...), true},
		{"tiles one ulp apart", TileRegion(tiles...), TileRegion(moved...), false},
		{"tiles prefix", TileRegion(tiles...), TileRegion(tiles[:1]...), false},
		{"tiles both empty", TileRegion(), TileRegion(), true},
		{"net pointer", NetRegion(netA), NetRegion(netA), true},
		{"net content", NetRegion(netA), NetRegion(netA2), true},
		{"net differs", NetRegion(netA), NetRegion(netB), false},
		{"net nil payload", NetRegion(netA), NetRegion(nil), false},
		{"kind circle/tiles", CircleRegion(geom.Pt(0, 0), 0), TileRegion(), false},
		{"kind tiles/net", TileRegion(), NetRegion(nil), false},
	} {
		if got := c.a.Equal(c.b); got != c.want {
			t.Errorf("%s: a.Equal(b) = %v, want %v", c.name, got, c.want)
		}
		if got := c.b.Equal(c.a); got != c.want {
			t.Errorf("%s: b.Equal(a) = %v, want %v", c.name, got, c.want)
		}
	}
	calls = 0
	if !NetRegion(netA).Equal(NetRegion(netA)) || calls != 0 {
		t.Fatalf("pointer-identical payloads called EqualRegion %d times, want 0", calls)
	}
	if !NetRegion(netA).Equal(NetRegion(netA2)) || calls != 1 {
		t.Fatalf("distinct payloads called EqualRegion %d times, want 1", calls)
	}
}
