package netmpn

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"mpn/internal/geom"
	"mpn/internal/roadnet"
)

// sameBuild reports how got differs from want, field by field and bit
// for bit ("" when it does not): Center, Radius, the network center, the
// segments and the retained junction distances.
func sameBuild(got, want *Region) string {
	bits := math.Float64bits
	switch {
	case keyOf(got.Center) != keyOf(want.Center):
		return fmt.Sprintf("center %v, want %v", got.Center, want.Center)
	case bits(got.Radius) != bits(want.Radius):
		return fmt.Sprintf("radius %v, want %v", got.Radius, want.Radius)
	case got.cpos != want.cpos || got.hasPos != want.hasPos:
		return fmt.Sprintf("network center %v (%v), want %v (%v)", got.cpos, got.hasPos, want.cpos, want.hasPos)
	case len(got.Segs) != len(want.Segs):
		return fmt.Sprintf("%d segments, want %d", len(got.Segs), len(want.Segs))
	case len(got.junctions) != len(want.junctions):
		return fmt.Sprintf("%d junctions, want %d", len(got.junctions), len(want.junctions))
	}
	for i := range got.Segs {
		if !sameSeg(got.Segs[i], want.Segs[i]) {
			return fmt.Sprintf("segment %d is %v, want %v", i, got.Segs[i], want.Segs[i])
		}
	}
	for i, j := range got.junctions {
		if w := want.junctions[i]; j.Node != w.Node || bits(j.Dist) != bits(w.Dist) {
			return fmt.Sprintf("junction %d is %v, want %v", i, j, w)
		}
	}
	return ""
}

// referenceRegion builds the region with the seed's map-based builder.
func (s *Server) referenceRegion(center Position, radius float64) *Region {
	rr := s.rangeRegion(center, radius)
	return s.exportRegion(&rr, s.posPoint(center))
}

// regionCase is one (center, radius) input of the differential fence.
type regionCase struct {
	center Position
	radius float64
}

// regionCases draws n seeded cases over s's network: centers on
// junctions, mid-edge (either orientation, the ends T = 0 and 1
// included), and radii of 0, +Inf, uniform over a few street lengths,
// a junction's exact distance from the center, so that boundary
// segments occur, and the distance at which a street's coverage from its
// two ends meets.
func regionCases(s *Server, rng *rand.Rand, n int) []regionCase {
	cases := make([]regionCase, 0, n)
	for len(cases) < n {
		var c Position
		if a := rng.Intn(s.net.NumNodes()); rng.Intn(3) == 0 || len(s.net.Adj[a]) == 0 {
			c = NodePos(a)
		} else {
			e := s.net.Adj[a][rng.Intn(len(s.net.Adj[a]))]
			c = Position{A: a, B: e.To, T: rng.Float64()}
			switch rng.Intn(8) {
			case 0:
				c.T = 0
			case 1:
				c.T = 1
			}
		}
		var r float64
		switch k := rng.Intn(10); {
		case k == 0:
			r = 0
		case k == 1:
			r = math.Inf(1)
		case k < 5:
			d := s.distRow(c)
			r = d[rng.Intn(len(d))]
			if math.IsInf(r, 1) {
				r = 0
			}
		case k < 7:
			// Where the coverage from both ends of a street meets, so
			// that the two intervals abut within rounding and the merge
			// slack decides.
			d := s.distRow(c)
			a := rng.Intn(len(d))
			if len(s.net.Adj[a]) == 0 {
				continue
			}
			e := s.net.Adj[a][rng.Intn(len(s.net.Adj[a]))]
			r = (d[a] + d[e.To] + e.Len) / 2
		default:
			r = 0.3 * rng.Float64()
		}
		cases = append(cases, regionCase{c, r})
	}
	return cases
}

// oddNet is a hand-built network with a zero-length street and a pair of
// parallel streets, which the generated networks never contain.
func oddNet() *roadnet.Network {
	e := func(to int, l float64) roadnet.Edge { return roadnet.Edge{To: to, Len: l} }
	return &roadnet.Network{
		Nodes: []roadnet.Node{
			{ID: 0, P: geom.Pt(0, 0)}, {ID: 1, P: geom.Pt(1, 0)},
			{ID: 2, P: geom.Pt(1, 0)}, {ID: 3, P: geom.Pt(1, 0.5)},
		},
		Adj: [][]roadnet.Edge{
			{e(1, 1), e(3, 2), e(1, 1)},
			{e(0, 1), e(2, 0), e(0, 1)},
			{e(1, 0), e(3, 0.5)},
			{e(2, 0.5), e(0, 2)},
		},
	}
}

// TestRegionMatchesReference is the differential fence of the region
// builder: over 10,000 seeded cases on the test network and 1,000 on a
// network with a zero-length and parallel streets, one scratch reused
// across all of them, Server.region must build exactly what the seed's
// map-based builder and its flattening build — segments and retained
// junction distances bit for bit — and boundary segments must occur.
func TestRegionMatchesReference(t *testing.T) {
	odd, err := NewServer(oddNet(), []int{0, 3})
	if err != nil {
		t.Fatal(err)
	}
	sc := new(netScratch)
	boundary := 0
	for _, tc := range []struct {
		s *Server
		n int
	}{{testServer(t, 5), 10000}, {odd, 1000}} {
		for i, c := range regionCases(tc.s, rand.New(rand.NewSource(61)), tc.n) {
			got := tc.s.region(sc, c.center, c.radius)
			if diff := sameBuild(got, tc.s.referenceRegion(c.center, c.radius)); diff != "" {
				t.Fatalf("case %d (center %v, radius %v): %s", i, c.center, c.radius, diff)
			}
			for _, j := range got.junctions {
				if j.Dist == c.radius {
					boundary++
				}
			}
		}
	}
	if boundary < 1000 {
		t.Fatalf("only %d boundary junctions over all cases", boundary)
	}
}

// TestRegionDirtyScratch: a scratch left as a search cut off mid-way
// leaves it — distances written, touched recorded, frontier and intervals
// pending — or sized for another network, must build what a fresh
// scratch builds: the builder cleans it on entry.
func TestRegionDirtyScratch(t *testing.T) {
	s := testServer(t, 5)
	want := s.region(new(netScratch), NodePos(11), 0.12)

	sc := new(netScratch)
	s.region(sc, NodePos(40), 0.2)
	for _, v := range []int{11, 12, 30, 90} {
		sc.reach(v, 0.001*float64(v), 1)
	}
	sc.cover(11, s.net.Adj[11][0].To, 0, 0.5)
	if got := s.region(sc, NodePos(11), 0.12); sameBuild(got, want) != "" {
		t.Fatalf("after a cut-off search: %s", sameBuild(got, want))
	}

	odd, err := NewServer(oddNet(), []int{0, 3})
	if err != nil {
		t.Fatal(err)
	}
	odd.region(sc, NodePos(1), 0.7)
	sc.reach(2, 0.25, 1)
	if got := s.region(sc, NodePos(11), 0.12); sameBuild(got, want) != "" {
		t.Fatalf("after a search over another network: %s", sameBuild(got, want))
	}
}

// FuzzRangeRegion feeds the builder arbitrary centers and radii — a node
// or directed-edge index, an edge fraction and a radius's bits — on the
// test network, one scratch reused across inputs, against the seed's
// builder. Inputs a validated plan cannot produce (T outside [0, 1], a
// negative or NaN radius) are skipped.
func FuzzRangeRegion(f *testing.F) {
	s := testServer(f, 5)
	type edge struct{ a, b int }
	var edges []edge
	for a := range s.net.Adj {
		for _, e := range s.net.Adj[a] {
			edges = append(edges, edge{a, e.To})
		}
	}
	nn := s.net.NumNodes()
	for _, c := range regionCases(s, rand.New(rand.NewSource(67)), 24) {
		idx := c.center.A
		if c.center.A != c.center.B {
			for i, e := range edges {
				if e == (edge{c.center.A, c.center.B}) {
					idx = nn + i
				}
			}
		}
		f.Add(uint32(idx), c.center.T, math.Float64bits(c.radius))
	}
	sc := new(netScratch)
	f.Fuzz(func(t *testing.T, idx uint32, frac float64, radiusBits uint64) {
		radius := math.Float64frombits(radiusBits)
		if !(frac >= 0 && frac <= 1) || !(radius >= 0) {
			t.Skip()
		}
		center := NodePos(int(idx % uint32(nn+len(edges))))
		if k := center.A - nn; k >= 0 {
			center = Position{A: edges[k].a, B: edges[k].b, T: frac}
		}
		if diff := sameBuild(s.region(sc, center, radius), s.referenceRegion(center, radius)); diff != "" {
			t.Fatalf("center %v, radius %v: %s", center, radius, diff)
		}
	})
}
