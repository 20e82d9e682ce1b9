// Package netmpn extends Meeting Point Notification to road-network space
// — the extension sketched in the paper's conclusion (Section 8): "For
// Circle, we may replace a circular region by a range search region over
// road segments."
//
// Users and POIs live on a road network; all distances are shortest-path
// lengths. Because the network distance is a metric, Theorem 1 carries
// over verbatim: with the best two meeting points p° and p² under the
// aggregate network distance, every user may roam within network radius
//
//	rmax = (‖p²,U‖ − ‖p°,U‖) / 2        (MAX)
//	rmax = (‖p²,U‖ − ‖p°,U‖) / (2m)     (SUM)
//
// of her current position without invalidating p°. The safe region is the
// network range region: the set of road-segment intervals reachable
// within rmax, computed by a truncated Dijkstra expansion.
package netmpn

import (
	"errors"
	"fmt"
	"math"

	"mpn/internal/roadnet"
)

// Position is a location on the network: a point on the edge from node A
// to node B at fraction T ∈ [0,1] from A. A node itself is represented
// with B == A and T == 0.
type Position struct {
	A, B int
	T    float64
}

// NodePos returns the Position of a network node.
func NodePos(node int) Position { return Position{A: node, B: node} }

// String implements fmt.Stringer.
func (p Position) String() string {
	if p.A == p.B {
		return fmt.Sprintf("node(%d)", p.A)
	}
	return fmt.Sprintf("edge(%d->%d @%.3f)", p.A, p.B, p.T)
}

// Aggregate mirrors gnn.Aggregate for network distances.
type Aggregate int

const (
	// Max minimizes the maximum network distance.
	Max Aggregate = iota
	// Sum minimizes the total network distance.
	Sum
)

// Server answers network MPN queries: it owns the road network and the POI
// placement (a subset of nodes).
type Server struct {
	net     *roadnet.Network
	pois    []int // node ids hosting POIs
	isPOI   []bool
	edgeLen map[[2]int]float64
}

// Errors returned by the package.
var (
	ErrNoPOIs      = errors.New("netmpn: no POIs")
	ErrNoUsers     = errors.New("netmpn: no users")
	ErrBadPos      = errors.New("netmpn: invalid position")
	ErrUnreachable = errors.New("netmpn: POIs unreachable from some user")
	// ErrBadNetwork rejects a road network that is not an undirected graph
	// with one finite non-negative length per street; NewServer wraps it
	// with the offending edge.
	ErrBadNetwork = errors.New("netmpn: bad road network")
)

// NewServer builds a network MPN server. poiNodes are the node ids that
// host POIs; duplicates are ignored. The network must be undirected —
// every edge listed from both endpoints with one finite, non-negative
// length — or NewServer fails with ErrBadNetwork: region geometry keys
// edges by their unordered endpoint pair, and the Backend's distance
// table is exact only when d(p,v) = d(v,p).
func NewServer(net *roadnet.Network, poiNodes []int) (*Server, error) {
	if net == nil || net.NumNodes() == 0 {
		return nil, errors.New("netmpn: empty network")
	}
	s := &Server{
		net:     net,
		isPOI:   make([]bool, net.NumNodes()),
		edgeLen: map[[2]int]float64{},
	}
	for _, n := range poiNodes {
		if n < 0 || n >= net.NumNodes() {
			return nil, fmt.Errorf("netmpn: POI node %d out of range", n)
		}
		if !s.isPOI[n] {
			s.isPOI[n] = true
			s.pois = append(s.pois, n)
		}
	}
	if len(s.pois) == 0 {
		return nil, ErrNoPOIs
	}
	if len(net.Adj) != net.NumNodes() {
		return nil, fmt.Errorf("%w: %d adjacency lists for %d nodes", ErrBadNetwork, len(net.Adj), net.NumNodes())
	}
	for a := range net.Adj {
		for _, e := range net.Adj[a] {
			if e.To < 0 || e.To >= net.NumNodes() {
				return nil, fmt.Errorf("%w: edge %d->%d leaves the node set", ErrBadNetwork, a, e.To)
			}
			if !(e.Len >= 0) || math.IsInf(e.Len, 1) {
				return nil, fmt.Errorf("%w: edge %d->%d has length %v", ErrBadNetwork, a, e.To, e.Len)
			}
			if l, ok := s.edgeLen[edgeKey(a, e.To)]; ok && l != e.Len {
				return nil, fmt.Errorf("%w: edge %d->%d has lengths %v and %v", ErrBadNetwork, a, e.To, l, e.Len)
			}
			s.edgeLen[edgeKey(a, e.To)] = e.Len
		}
	}
	for a := range net.Adj {
		for _, e := range net.Adj[a] {
			if !hasEdge(net, e.To, a) {
				return nil, fmt.Errorf("%w: edge %d->%d has no reverse", ErrBadNetwork, a, e.To)
			}
		}
	}
	return s, nil
}

func hasEdge(net *roadnet.Network, from, to int) bool {
	for _, e := range net.Adj[from] {
		if e.To == to {
			return true
		}
	}
	return false
}

func edgeKey(a, b int) [2]int {
	if a > b {
		a, b = b, a
	}
	return [2]int{a, b}
}

// validate checks that a position references an existing edge or node.
func (s *Server) validate(p Position) error {
	if p.A < 0 || p.A >= s.net.NumNodes() || p.B < 0 || p.B >= s.net.NumNodes() {
		return ErrBadPos
	}
	if p.A == p.B {
		return nil
	}
	if p.T < 0 || p.T > 1 {
		return ErrBadPos
	}
	if _, ok := s.edgeLen[edgeKey(p.A, p.B)]; !ok {
		return ErrBadPos
	}
	return nil
}

// sssp runs Dijkstra from a position into dist, one entry per junction,
// seeded with the two partial-edge offsets, and returns dist. q is the
// caller's queue, reused across searches.
func (s *Server) sssp(from Position, dist []float64, q *roadnet.NodeQueue) []float64 {
	for i := range dist {
		dist[i] = math.Inf(1)
	}
	*q = (*q)[:0]
	push := func(n int, d float64) {
		if d < dist[n] {
			dist[n] = d
			q.Push(n, d)
		}
	}
	if from.A == from.B {
		push(from.A, 0)
	} else {
		l := s.edgeLen[edgeKey(from.A, from.B)]
		push(from.A, from.T*l)
		push(from.B, (1-from.T)*l)
	}
	for len(*q) > 0 {
		e := q.Pop()
		if e.Dist > dist[e.Node] {
			continue
		}
		for _, ed := range s.net.Adj[e.Node] {
			push(ed.To, e.Dist+ed.Len)
		}
	}
	return dist
}

// Dist returns the network distance from a position to a node.
func (s *Server) Dist(from Position, node int) float64 {
	var q roadnet.NodeQueue
	return s.sssp(from, make([]float64, s.net.NumNodes()), &q)[node]
}

// Result is the chosen meeting POI and its aggregate network distance.
type Result struct {
	Node int
	Dist float64
}

// Plan computes the optimal meeting POI and one network range safe region
// per user. The same Theorem 1/5 radius argument applies because the
// network distance is a metric.
//
// Plan pays one full single-source Dijkstra per member and scans every
// POI — the naive baseline — and builds its regions in a scratch of its
// own. It is retained as the user-rooted oracle for the table-driven
// Backend (whose aggregate distances agree with Plan's to 1e-12, see
// backend.go) and as the net_plan_naive benchmark series the speedup
// gate compares against.
func (s *Server) Plan(users []Position, agg Aggregate) (Result, []*Region, error) {
	if len(users) == 0 {
		return Result{}, nil, ErrNoUsers
	}
	for _, u := range users {
		if err := s.validate(u); err != nil {
			return Result{}, nil, err
		}
	}
	// One SSSP per user; aggregate per POI.
	sc := new(netScratch)
	dists := make([][]float64, len(users))
	for i, u := range users {
		dists[i] = s.sssp(u, make([]float64, s.net.NumNodes()), &sc.q)
	}
	best, second := Result{Node: -1, Dist: math.Inf(1)}, Result{Node: -1, Dist: math.Inf(1)}
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
		switch {
		case d < best.Dist:
			second = best
			best = Result{Node: p, Dist: d}
		case d < second.Dist:
			second = Result{Node: p, Dist: d}
		}
	}
	if best.Node == -1 || math.IsInf(best.Dist, 1) {
		return Result{}, nil, ErrUnreachable
	}

	var rmax float64
	if second.Node == -1 {
		rmax = math.Inf(1) // single POI: never displaced
	} else {
		gap := second.Dist - best.Dist
		if gap < 0 {
			gap = 0
		}
		if agg == Max {
			rmax = gap / 2
		} else {
			rmax = gap / (2 * float64(len(users)))
		}
	}

	regions := make([]*Region, len(users))
	for i, u := range users {
		regions[i] = s.region(sc, u, rmax)
	}
	return best, regions, nil
}
