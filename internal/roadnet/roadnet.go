// Package roadnet provides a synthetic road network and shortest-path
// routing. It is the substrate for the Brinkhoff-style network-constrained
// trajectory generator [27] that stands in for the paper's Oldenburg data
// set: a perturbed grid of streets with randomly removed segments and a
// sparse set of diagonal arterials, restricted to its largest connected
// component so every routing request succeeds.
package roadnet

import (
	"fmt"
	"math"
	"math/rand"

	"mpn/internal/geom"
)

// Node is a road junction.
type Node struct {
	ID int
	P  geom.Point
}

// Edge is a directed road segment (networks are built symmetric).
type Edge struct {
	To  int
	Len float64
}

// Network is a routable road graph embedded in the unit square.
type Network struct {
	Nodes []Node
	Adj   [][]Edge
}

// Config controls network generation.
type Config struct {
	// Rows and Cols set the underlying junction grid (Rows×Cols nodes).
	Rows, Cols int
	// Jitter displaces each junction by up to ±Jitter·cellSize on each
	// axis, bending the streets.
	Jitter float64
	// DropFrac removes this fraction of grid edges (dead ends, rivers).
	DropFrac float64
	// Arterials adds this many long diagonal shortcut roads.
	Arterials int
	// Seed drives the generator deterministically.
	Seed int64
}

// DefaultConfig is a city-scale network: ~1,600 junctions.
func DefaultConfig() Config {
	return Config{Rows: 40, Cols: 40, Jitter: 0.3, DropFrac: 0.12, Arterials: 30, Seed: 1}
}

// Generate builds a network from cfg. The result is always connected (it
// is the largest connected component of the raw perturbed grid) and has at
// least one node.
func Generate(cfg Config) (*Network, error) {
	if cfg.Rows < 2 || cfg.Cols < 2 {
		return nil, fmt.Errorf("roadnet: grid %dx%d too small", cfg.Rows, cfg.Cols)
	}
	if cfg.DropFrac < 0 || cfg.DropFrac >= 1 {
		return nil, fmt.Errorf("roadnet: DropFrac %v out of [0,1)", cfg.DropFrac)
	}
	rng := rand.New(rand.NewSource(cfg.Seed))

	rows, cols := cfg.Rows, cfg.Cols
	cw := 1.0 / float64(cols-1)
	ch := 1.0 / float64(rows-1)

	nodes := make([]Node, rows*cols)
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			id := r*cols + c
			jx := (rng.Float64()*2 - 1) * cfg.Jitter * cw
			jy := (rng.Float64()*2 - 1) * cfg.Jitter * ch
			nodes[id] = Node{
				ID: id,
				P: geom.Pt(
					clamp01(float64(c)*cw+jx),
					clamp01(float64(r)*ch+jy),
				),
			}
		}
	}

	type rawEdge struct{ a, b int }
	var raw []rawEdge
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			id := r*cols + c
			if c+1 < cols {
				raw = append(raw, rawEdge{id, id + 1})
			}
			if r+1 < rows {
				raw = append(raw, rawEdge{id, id + cols})
			}
		}
	}
	// Drop a fraction of street segments.
	rng.Shuffle(len(raw), func(i, j int) { raw[i], raw[j] = raw[j], raw[i] })
	kept := raw[int(float64(len(raw))*cfg.DropFrac):]

	// Diagonal arterials between random distant junctions.
	for i := 0; i < cfg.Arterials; i++ {
		a := rng.Intn(len(nodes))
		b := rng.Intn(len(nodes))
		if a != b {
			kept = append(kept, rawEdge{a, b})
		}
	}

	adj := make([][]Edge, len(nodes))
	addEdge := func(a, b int) {
		l := nodes[a].P.Dist(nodes[b].P)
		adj[a] = append(adj[a], Edge{To: b, Len: l})
		adj[b] = append(adj[b], Edge{To: a, Len: l})
	}
	for _, e := range kept {
		addEdge(e.a, e.b)
	}

	return largestComponent(&Network{Nodes: nodes, Adj: adj}), nil
}

func clamp01(v float64) float64 {
	if v < 0 {
		return 0
	}
	if v > 1 {
		return 1
	}
	return v
}

// largestComponent extracts the biggest connected component and relabels
// its node IDs densely.
func largestComponent(n *Network) *Network {
	comp := make([]int, len(n.Nodes))
	for i := range comp {
		comp[i] = -1
	}
	bestID, bestSize := -1, 0
	nextComp := 0
	var stack []int
	for start := range n.Nodes {
		if comp[start] != -1 {
			continue
		}
		size := 0
		stack = append(stack[:0], start)
		comp[start] = nextComp
		for len(stack) > 0 {
			v := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			size++
			for _, e := range n.Adj[v] {
				if comp[e.To] == -1 {
					comp[e.To] = nextComp
					stack = append(stack, e.To)
				}
			}
		}
		if size > bestSize {
			bestSize, bestID = size, nextComp
		}
		nextComp++
	}

	remap := make([]int, len(n.Nodes))
	out := &Network{}
	for i, nd := range n.Nodes {
		if comp[i] == bestID {
			remap[i] = len(out.Nodes)
			out.Nodes = append(out.Nodes, Node{ID: len(out.Nodes), P: nd.P})
		} else {
			remap[i] = -1
		}
	}
	out.Adj = make([][]Edge, len(out.Nodes))
	for i := range n.Nodes {
		if comp[i] != bestID {
			continue
		}
		for _, e := range n.Adj[i] {
			out.Adj[remap[i]] = append(out.Adj[remap[i]], Edge{To: remap[e.To], Len: e.Len})
		}
	}
	return out
}

// NumNodes returns the junction count.
func (n *Network) NumNodes() int { return len(n.Nodes) }

// NumEdges returns the undirected edge count.
func (n *Network) NumEdges() int {
	total := 0
	for _, a := range n.Adj {
		total += len(a)
	}
	return total / 2
}

// RandomNode returns a uniformly random junction ID.
func (n *Network) RandomNode(rng *rand.Rand) int {
	return rng.Intn(len(n.Nodes))
}

// ShortestPath returns the node sequence and length of the shortest path
// from a to b (Dijkstra). ok is false only if a and b are disconnected,
// which cannot happen on Generate output.
func (n *Network) ShortestPath(a, b int) (path []int, length float64, ok bool) {
	if a == b {
		return []int{a}, 0, true
	}
	dist := make([]float64, len(n.Nodes))
	prev := make([]int, len(n.Nodes))
	for i := range dist {
		dist[i] = math.Inf(1)
		prev[i] = -1
	}
	dist[a] = 0
	q := NodeQueue{{Node: a}}
	for len(q) > 0 {
		e := q.Pop()
		if e.Dist > dist[e.Node] {
			continue
		}
		if e.Node == b {
			break
		}
		for _, ed := range n.Adj[e.Node] {
			nd := e.Dist + ed.Len
			if nd < dist[ed.To] {
				dist[ed.To] = nd
				prev[ed.To] = e.Node
				q.Push(ed.To, nd)
			}
		}
	}
	if math.IsInf(dist[b], 1) {
		return nil, 0, false
	}
	for v := b; v != -1; v = prev[v] {
		path = append(path, v)
	}
	// Reverse in place.
	for i, j := 0, len(path)-1; i < j; i, j = i+1, j-1 {
		path[i], path[j] = path[j], path[i]
	}
	return path, dist[b], true
}
