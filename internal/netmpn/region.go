package netmpn

import (
	"math"
	"sort"

	"mpn/internal/roadnet"
)

// RangeRegion is a network range safe region: every point of the road
// network within network distance Radius of Center. It stores the covered
// interval of each touched edge so the client-side Contains test is a map
// lookup, matching the paper's "range search region over road segments".
type RangeRegion struct {
	Center Position
	Radius float64
	// nodeDist holds the distance from Center to each node reached within
	// Radius.
	nodeDist map[int]float64
	// edges maps an undirected edge to the covered sub-intervals,
	// expressed as fractions along the edge from the smaller-id endpoint.
	edges map[[2]int][]interval
}

// interval is a covered [Lo,Hi] fraction range of an edge.
type interval struct {
	Lo, Hi float64
}

// rangeRegion runs a truncated Dijkstra from center and records covered
// edge intervals.
func (s *Server) rangeRegion(center Position, radius float64) RangeRegion {
	r := RangeRegion{
		Center:   center,
		Radius:   radius,
		nodeDist: map[int]float64{},
		edges:    map[[2]int][]interval{},
	}
	if math.IsInf(radius, 1) {
		// Whole-network region: mark every edge fully covered.
		for a := range s.net.Adj {
			r.nodeDist[a] = 0
			for _, e := range s.net.Adj[a] {
				r.edges[edgeKey(a, e.To)] = []interval{{0, 1}}
			}
		}
		return r
	}

	// Truncated Dijkstra over nodes.
	dist := make(map[int]float64)
	var q roadnet.NodeQueue
	push := func(n int, d float64) {
		if d > radius {
			return
		}
		if old, ok := dist[n]; !ok || d < old {
			dist[n] = d
			q.Push(n, d)
		}
	}
	if center.A == center.B {
		push(center.A, 0)
	} else {
		l := s.edgeLen[edgeKey(center.A, center.B)]
		push(center.A, center.T*l)
		push(center.B, (1-center.T)*l)
		// The center's own edge is partially covered around T even when
		// the endpoints are out of range.
		r.coverAround(center, l, radius)
	}
	for len(q) > 0 {
		e := q.Pop()
		if d, ok := dist[e.Node]; !ok || e.Dist > d {
			continue
		}
		for _, ed := range s.net.Adj[e.Node] {
			push(ed.To, e.Dist+ed.Len)
		}
	}
	r.nodeDist = dist

	// Convert node distances to per-edge covered intervals: from endpoint
	// a, the edge a→b is covered for the first (radius − dist[a]) length.
	for a, da := range dist {
		for _, ed := range s.net.Adj[a] {
			key := edgeKey(a, ed.To)
			if ed.Len == 0 {
				r.addInterval(key, interval{0, 1})
				continue
			}
			reach := (radius - da) / ed.Len
			if reach <= 0 {
				continue
			}
			if reach > 1 {
				reach = 1
			}
			if a < ed.To {
				r.addInterval(key, interval{0, reach})
			} else {
				r.addInterval(key, interval{1 - reach, 1})
			}
		}
	}
	r.normalize()
	return r
}

// coverAround covers the center's own edge for radius on both sides of T.
func (r *RangeRegion) coverAround(center Position, edgeLen, radius float64) {
	if edgeLen == 0 {
		r.addInterval(edgeKey(center.A, center.B), interval{0, 1})
		return
	}
	t := center.T
	if center.A > center.B {
		t = 1 - t // normalize to the smaller-id endpoint
	}
	span := radius / edgeLen
	lo, hi := t-span, t+span
	if lo < 0 {
		lo = 0
	}
	if hi > 1 {
		hi = 1
	}
	if hi > lo {
		r.addInterval(edgeKey(center.A, center.B), interval{lo, hi})
	} else {
		// Zero radius still covers the exact point.
		r.addInterval(edgeKey(center.A, center.B), interval{t, t})
	}
}

func (r *RangeRegion) addInterval(key [2]int, iv interval) {
	r.edges[key] = append(r.edges[key], iv)
}

// normalize merges overlapping intervals per edge.
func (r *RangeRegion) normalize() {
	for key, ivs := range r.edges {
		if len(ivs) <= 1 {
			continue
		}
		sort.Slice(ivs, func(i, j int) bool { return ivs[i].Lo < ivs[j].Lo })
		merged := ivs[:1]
		for _, iv := range ivs[1:] {
			last := &merged[len(merged)-1]
			if iv.Lo <= last.Hi+1e-12 {
				if iv.Hi > last.Hi {
					last.Hi = iv.Hi
				}
			} else {
				merged = append(merged, iv)
			}
		}
		r.edges[key] = merged
	}
}

// Contains reports whether a position lies inside the region.
func (r RangeRegion) Contains(p Position) bool {
	if p.A == p.B {
		_, ok := r.nodeDist[p.A]
		if ok {
			return true
		}
		// A node can also be covered as an interval endpoint.
		return r.coveredAt(p.A, p.B, 0)
	}
	return r.coveredAt(p.A, p.B, p.T)
}

func (r RangeRegion) coveredAt(a, b int, t float64) bool {
	if a > b {
		a, b = b, a
		t = 1 - t
	}
	for _, iv := range r.edges[[2]int{a, b}] {
		if t >= iv.Lo-1e-12 && t <= iv.Hi+1e-12 {
			return true
		}
	}
	return false
}

// NumEdges returns how many road segments the region touches.
func (r RangeRegion) NumEdges() int { return len(r.edges) }
