package roadnet

import (
	"math"
	"math/rand"
	"testing"

	"mpn/internal/geom"
)

func mustGenerate(t testing.TB, cfg Config) *Network {
	t.Helper()
	n, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return n
}

func TestGenerateBasics(t *testing.T) {
	n := mustGenerate(t, DefaultConfig())
	if n.NumNodes() < 1000 {
		t.Fatalf("network too small: %d nodes", n.NumNodes())
	}
	if n.NumEdges() < n.NumNodes() {
		t.Fatalf("network too sparse: %d edges for %d nodes", n.NumEdges(), n.NumNodes())
	}
	for _, nd := range n.Nodes {
		if nd.P.X < 0 || nd.P.X > 1 || nd.P.Y < 0 || nd.P.Y > 1 {
			t.Fatalf("node %d outside unit square: %v", nd.ID, nd.P)
		}
	}
	// Adjacency symmetric.
	for a := range n.Adj {
		for _, e := range n.Adj[a] {
			found := false
			for _, back := range n.Adj[e.To] {
				if back.To == a {
					found = true
					break
				}
			}
			if !found {
				t.Fatalf("edge %d->%d not symmetric", a, e.To)
			}
		}
	}
}

func TestGenerateErrors(t *testing.T) {
	if _, err := Generate(Config{Rows: 1, Cols: 5}); err == nil {
		t.Fatal("tiny grid accepted")
	}
	if _, err := Generate(Config{Rows: 5, Cols: 5, DropFrac: 1.5}); err == nil {
		t.Fatal("bad DropFrac accepted")
	}
}

func TestGenerateDeterministic(t *testing.T) {
	a := mustGenerate(t, DefaultConfig())
	b := mustGenerate(t, DefaultConfig())
	if a.NumNodes() != b.NumNodes() || a.NumEdges() != b.NumEdges() {
		t.Fatal("same seed produced different networks")
	}
	cfg := DefaultConfig()
	cfg.Seed = 2
	c := mustGenerate(t, cfg)
	if a.NumNodes() == c.NumNodes() && a.NumEdges() == c.NumEdges() &&
		a.Nodes[0].P == c.Nodes[0].P {
		t.Fatal("different seeds produced identical networks")
	}
}

func TestConnectivity(t *testing.T) {
	cfg := DefaultConfig()
	cfg.DropFrac = 0.3 // aggressive dropping still must leave one component
	n := mustGenerate(t, cfg)
	rng := rand.New(rand.NewSource(9))
	for i := 0; i < 50; i++ {
		a, b := n.RandomNode(rng), n.RandomNode(rng)
		if _, _, ok := n.ShortestPath(a, b); !ok {
			t.Fatalf("nodes %d and %d disconnected", a, b)
		}
	}
}

func TestShortestPathProperties(t *testing.T) {
	n := mustGenerate(t, Config{Rows: 12, Cols: 12, Jitter: 0.2, DropFrac: 0.1, Arterials: 5, Seed: 3})
	rng := rand.New(rand.NewSource(10))
	for i := 0; i < 100; i++ {
		a, b := n.RandomNode(rng), n.RandomNode(rng)
		path, d, ok := n.ShortestPath(a, b)
		if !ok {
			t.Fatal("disconnected")
		}
		if path[0] != a || path[len(path)-1] != b {
			t.Fatal("path endpoints wrong")
		}
		// Path length consistent with edge sum.
		sum := 0.0
		for k := 1; k < len(path); k++ {
			sum += n.Nodes[path[k-1]].P.Dist(n.Nodes[path[k]].P)
		}
		if math.Abs(sum-d) > 1e-9 {
			t.Fatalf("path sum %v != reported %v", sum, d)
		}
		// Symmetry.
		_, d2, _ := n.ShortestPath(b, a)
		if math.Abs(d-d2) > 1e-9 {
			t.Fatalf("asymmetric distances: %v vs %v", d, d2)
		}
		// Lower bounded by Euclidean distance.
		if d < n.Nodes[a].P.Dist(n.Nodes[b].P)-1e-9 {
			t.Fatal("network distance below Euclidean")
		}
	}
}

func TestTriangleInequality(t *testing.T) {
	n := mustGenerate(t, Config{Rows: 10, Cols: 10, Jitter: 0.1, DropFrac: 0.05, Arterials: 3, Seed: 4})
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 60; i++ {
		a, b, c := n.RandomNode(rng), n.RandomNode(rng), n.RandomNode(rng)
		_, dab, _ := n.ShortestPath(a, b)
		_, dbc, _ := n.ShortestPath(b, c)
		_, dac, _ := n.ShortestPath(a, c)
		if dac > dab+dbc+1e-9 {
			t.Fatalf("triangle inequality violated: d(%d,%d)=%v > %v+%v", a, c, dac, dab, dbc)
		}
	}
}

func TestShortestPathTrivial(t *testing.T) {
	n := mustGenerate(t, Config{Rows: 3, Cols: 3, Seed: 5})
	path, d, ok := n.ShortestPath(0, 0)
	if !ok || d != 0 || len(path) != 1 {
		t.Fatalf("self path: %v %v %v", path, d, ok)
	}
}

// NearestNode returns the junction closest to p (linear scan).
func (n *Network) NearestNode(p geom.Point) int {
	best, bestD := 0, math.Inf(1)
	for i, nd := range n.Nodes {
		if d := nd.P.Dist2(p); d < bestD {
			best, bestD = i, d
		}
	}
	return best
}

func TestNearestNode(t *testing.T) {
	n := mustGenerate(t, Config{Rows: 8, Cols: 8, Seed: 6})
	rng := rand.New(rand.NewSource(12))
	for i := 0; i < 50; i++ {
		p := geom.Pt(rng.Float64(), rng.Float64())
		got := n.NearestNode(p)
		for _, nd := range n.Nodes {
			if nd.P.Dist(p) < n.Nodes[got].P.Dist(p)-1e-12 {
				t.Fatalf("NearestNode missed closer node %d", nd.ID)
			}
		}
	}
}

func BenchmarkShortestPath(b *testing.B) {
	n := mustGenerate(b, DefaultConfig())
	rng := rand.New(rand.NewSource(13))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a, c := n.RandomNode(rng), n.RandomNode(rng)
		n.ShortestPath(a, c)
	}
}
