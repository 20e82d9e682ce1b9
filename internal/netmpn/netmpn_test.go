package netmpn

import (
	"errors"
	"math"
	"math/rand"
	"testing"

	"mpn/internal/geom"
	"mpn/internal/roadnet"
)

func testNet(t testing.TB) *roadnet.Network {
	t.Helper()
	net, err := roadnet.Generate(roadnet.Config{
		Rows: 12, Cols: 12, Jitter: 0.2, DropFrac: 0.08, Arterials: 6, Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	return net
}

func testServer(t testing.TB, poiEvery int) *Server {
	t.Helper()
	net := testNet(t)
	var pois []int
	for n := 0; n < net.NumNodes(); n += poiEvery {
		pois = append(pois, n)
	}
	s, err := NewServer(net, pois)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestNewServerErrors(t *testing.T) {
	net := testNet(t)
	if _, err := NewServer(nil, []int{0}); err == nil {
		t.Fatal("nil network accepted")
	}
	if _, err := NewServer(net, nil); err != ErrNoPOIs {
		t.Fatalf("want ErrNoPOIs got %v", err)
	}
	if _, err := NewServer(net, []int{-1}); err == nil {
		t.Fatal("out-of-range POI accepted")
	}
	// Duplicates collapse.
	s, err := NewServer(net, []int{0, 0, 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(s.pois) != 2 {
		t.Fatalf("pois=%d want 2", len(s.pois))
	}
}

// TestNewServerBadNetwork: a hand-built network that is not an undirected
// graph with one finite non-negative length per street is refused with
// ErrBadNetwork, by NewServer and unchanged through NewBackend.
func TestNewServerBadNetwork(t *testing.T) {
	edge := func(to int, l float64) roadnet.Edge { return roadnet.Edge{To: to, Len: l} }
	for _, tc := range []struct {
		name string
		adj  [][]roadnet.Edge
		bad  bool
	}{
		{"valid", [][]roadnet.Edge{{edge(1, 1)}, {edge(0, 1), edge(2, 2)}, {edge(1, 2)}}, false},
		{"parallel edges of one length", [][]roadnet.Edge{{edge(1, 1), edge(1, 1)}, {edge(0, 1)}, {}}, false},
		{"missing reverse", [][]roadnet.Edge{{edge(1, 1)}, {edge(2, 2)}, {edge(1, 2)}}, true},
		{"mismatched length", [][]roadnet.Edge{{edge(1, 1)}, {edge(0, 1.5)}, {}}, true},
		{"negative", [][]roadnet.Edge{{edge(1, -1)}, {edge(0, -1)}, {}}, true},
		{"NaN", [][]roadnet.Edge{{edge(1, math.NaN())}, {edge(0, math.NaN())}, {}}, true},
		{"infinite", [][]roadnet.Edge{{edge(1, math.Inf(1))}, {edge(0, math.Inf(1))}, {}}, true},
		{"dangling endpoint", [][]roadnet.Edge{{edge(3, 1)}, {}, {}}, true},
		{"short adjacency", [][]roadnet.Edge{{}, {}}, true},
	} {
		net := &roadnet.Network{Nodes: make([]roadnet.Node, 3), Adj: tc.adj}
		_, errS := NewServer(net, []int{0})
		_, errB := NewBackend(net, []int{0}, BackendConfig{})
		if errS != errB && (errS == nil || errB == nil || errS.Error() != errB.Error()) {
			t.Fatalf("%s: NewServer %v, NewBackend %v", tc.name, errS, errB)
		}
		if got := errors.Is(errS, ErrBadNetwork); got != tc.bad {
			t.Fatalf("%s: err %v, want ErrBadNetwork=%v", tc.name, errS, tc.bad)
		}
		if !tc.bad && errS != nil {
			t.Fatalf("%s: %v", tc.name, errS)
		}
	}
}

func TestSSSPMatchesShortestPath(t *testing.T) {
	s := testServer(t, 5)
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 30; trial++ {
		from := s.net.RandomNode(rng)
		to := s.net.RandomNode(rng)
		_, want, ok := s.net.ShortestPath(from, to)
		if !ok {
			t.Fatal("disconnected")
		}
		got := s.Dist(NodePos(from), to)
		if math.Abs(got-want) > 1e-9 {
			t.Fatalf("Dist(%d,%d)=%v want %v", from, to, got, want)
		}
	}
}

func TestSSSPFromMidEdge(t *testing.T) {
	s := testServer(t, 5)
	// Take any edge and a position halfway along it.
	a := 0
	b := s.net.Adj[a][0].To
	l := s.EdgeLen(a, b)
	pos := Position{A: a, B: b, T: 0.5}
	d := s.sssp(pos)
	if math.Abs(d[a]-l/2) > 1e-9 || math.Abs(d[b]-l/2) > 1e-9 {
		t.Fatalf("mid-edge distances to endpoints: %v, %v want %v", d[a], d[b], l/2)
	}
}

func TestPlanOptimality(t *testing.T) {
	s := testServer(t, 4)
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 15; trial++ {
		users := []Position{
			NodePos(s.net.RandomNode(rng)),
			NodePos(s.net.RandomNode(rng)),
			NodePos(s.net.RandomNode(rng)),
		}
		for _, agg := range []Aggregate{Max, Sum} {
			res, regions, err := s.Plan(users, agg)
			if err != nil {
				t.Fatal(err)
			}
			if len(regions) != len(users) {
				t.Fatal("region count")
			}
			// Brute-force check of the optimum.
			dists := make([][]float64, len(users))
			for i, u := range users {
				dists[i] = s.sssp(u)
			}
			best := math.Inf(1)
			for _, p := range s.pois {
				var d float64
				if agg == Max {
					for i := range users {
						if v := dists[i][p]; v > d {
							d = v
						}
					}
				} else {
					for i := range users {
						d += dists[i][p]
					}
				}
				if d < best {
					best = d
				}
			}
			if math.Abs(res.Dist-best) > 1e-9 {
				t.Fatalf("%v: planned %v brute %v", agg, res.Dist, best)
			}
			// Every region contains its user.
			for i, r := range regions {
				if !r.Contains(users[i]) {
					t.Fatalf("region %d misses its user %v", i, users[i])
				}
			}
		}
	}
}

func TestPlanErrors(t *testing.T) {
	s := testServer(t, 5)
	if _, _, err := s.Plan(nil, Max); err != ErrNoUsers {
		t.Fatalf("want ErrNoUsers got %v", err)
	}
	if _, _, err := s.Plan([]Position{{A: -1, B: 0}}, Max); err != ErrBadPos {
		t.Fatalf("want ErrBadPos got %v", err)
	}
	if _, _, err := s.Plan([]Position{{A: 0, B: 1, T: 2}}, Max); err == nil {
		t.Fatal("T>1 accepted")
	}
	// Edge that does not exist.
	far := s.net.NumNodes() - 1
	if s.EdgeLen(0, far) == 0 {
		if _, _, err := s.Plan([]Position{{A: 0, B: far, T: 0.5}}, Max); err == nil {
			t.Fatal("nonexistent edge accepted")
		}
	}
}

// Theorem 1 soundness in network space: while every user stays inside her
// range region, the planned POI remains optimal.
func TestRegionSoundness(t *testing.T) {
	s := testServer(t, 4)
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 10; trial++ {
		users := []Position{
			NodePos(s.net.RandomNode(rng)),
			NodePos(s.net.RandomNode(rng)),
		}
		res, regions, err := s.Plan(users, Max)
		if err != nil {
			t.Fatal(err)
		}
		// Sample in-region node positions for both users and re-check the
		// optimum.
		for sample := 0; sample < 12; sample++ {
			inst := make([]Position, len(users))
			for i, r := range regions {
				inst[i] = sampleRegionNode(r, users[i], rng)
			}
			dists := make([][]float64, len(inst))
			for i, u := range inst {
				dists[i] = s.sssp(u)
			}
			dOf := func(p int) float64 {
				var d float64
				for i := range inst {
					if v := dists[i][p]; v > d {
						d = v
					}
				}
				return d
			}
			planned := dOf(res.Node)
			for _, p := range s.pois {
				if dOf(p) < planned-1e-9 {
					t.Fatalf("in-region instance favors POI %d over planned %d", p, res.Node)
				}
			}
		}
	}
}

// sampleRegionNode picks a covered node of the region (falling back to the
// user's own position).
func sampleRegionNode(r RangeRegion, fallback Position, rng *rand.Rand) Position {
	if len(r.nodeDist) == 0 {
		return fallback
	}
	k := rng.Intn(len(r.nodeDist))
	for n := range r.nodeDist {
		if k == 0 {
			return NodePos(n)
		}
		k--
	}
	return fallback
}

func TestRangeRegionGeometry(t *testing.T) {
	s := testServer(t, 5)
	center := NodePos(7)
	r := s.rangeRegion(center, 0.12)
	if !r.Contains(center) {
		t.Fatal("region misses its center")
	}
	if r.NumEdges() == 0 {
		t.Fatal("no edges covered")
	}
	// Every covered node must be within the radius; nearby uncovered
	// nodes must be beyond it.
	d := s.sssp(center)
	for n, dn := range r.nodeDist {
		if math.Abs(dn-d[n]) > 1e-9 {
			t.Fatalf("node %d recorded dist %v true %v", n, dn, d[n])
		}
		if dn > r.Radius+1e-9 {
			t.Fatalf("node %d at %v beyond radius %v", n, dn, r.Radius)
		}
	}
	for n := 0; n < s.net.NumNodes(); n++ {
		if _, ok := r.nodeDist[n]; !ok && d[n] <= r.Radius-1e-9 {
			t.Fatalf("node %d within radius but not covered", n)
		}
	}
}

func TestRangeRegionMidEdgeCenter(t *testing.T) {
	s := testServer(t, 5)
	a := 3
	b := s.net.Adj[3][0].To
	center := Position{A: a, B: b, T: 0.4}
	l := s.EdgeLen(a, b)
	// A radius smaller than the distance to either endpoint: region is a
	// sub-interval of the single edge.
	radius := 0.2 * l * math.Min(0.4, 0.6)
	r := s.rangeRegion(center, radius)
	if !r.Contains(center) {
		t.Fatal("tiny region misses center")
	}
	if r.Contains(NodePos(a)) || r.Contains(NodePos(b)) {
		t.Fatal("tiny region should not reach the edge endpoints")
	}
	// Moving along the edge within the radius stays inside.
	inside := Position{A: a, B: b, T: 0.4 + 0.5*radius/l}
	if !r.Contains(inside) {
		t.Fatal("in-radius point on center edge not covered")
	}
	outside := Position{A: a, B: b, T: 0.4 + 2*radius/l}
	if r.Contains(outside) {
		t.Fatal("out-of-radius point covered")
	}
}

func TestRangeRegionInfinite(t *testing.T) {
	net := testNet(t)
	s, err := NewServer(net, []int{0}) // single POI ⇒ infinite radius
	if err != nil {
		t.Fatal(err)
	}
	_, regions, err := s.Plan([]Position{NodePos(5), NodePos(9)}, Max)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range regions {
		if !math.IsInf(r.Radius, 1) {
			t.Fatalf("single-POI radius %v", r.Radius)
		}
		// Any position is inside.
		if !r.Contains(NodePos(net.NumNodes() - 1)) {
			t.Fatal("infinite region misses a node")
		}
	}
}

func TestWalker(t *testing.T) {
	net := testNet(t)
	w, err := NewWalker(net, 0.004, 1)
	if err != nil {
		t.Fatal(err)
	}
	prev := w.Pos()
	s := testServer(t, 5)
	for i := 0; i < 500; i++ {
		cur := w.Step()
		if err := s.validate(cur); err != nil {
			t.Fatalf("step %d: invalid position %v: %v", i, cur, err)
		}
		// Per-step Euclidean displacement cannot exceed the walk speed.
		pp := euclid(net, prev)
		cp := euclid(net, cur)
		if d := pp.Dist(cp); d > 0.004+1e-9 {
			t.Fatalf("step %d moved %v", i, d)
		}
		prev = cur
	}
	if _, err := NewWalker(nil, 0.01, 1); err == nil {
		t.Fatal("nil network accepted")
	}
	if _, err := NewWalker(net, 0, 1); err == nil {
		t.Fatal("zero speed accepted")
	}
}

func euclid(net *roadnet.Network, p Position) geom.Point {
	a := net.Nodes[p.A].P
	if p.A == p.B {
		return a
	}
	b := net.Nodes[p.B].P
	return geom.Pt(a.X+p.T*(b.X-a.X), a.Y+p.T*(b.Y-a.Y))
}

func TestPositionString(t *testing.T) {
	if NodePos(3).String() != "node(3)" {
		t.Fatal("node string")
	}
	if (Position{A: 1, B: 2, T: 0.5}).String() == "" {
		t.Fatal("edge string")
	}
}

func BenchmarkNetPlan(b *testing.B) {
	s := testServer(b, 4)
	rng := rand.New(rand.NewSource(5))
	users := []Position{
		NodePos(s.net.RandomNode(rng)),
		NodePos(s.net.RandomNode(rng)),
		NodePos(s.net.RandomNode(rng)),
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := s.Plan(users, Max); err != nil {
			b.Fatal(err)
		}
	}
}
