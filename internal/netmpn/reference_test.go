package netmpn

import (
	"math"
	"sort"

	"mpn/internal/geom"
	"mpn/internal/roadnet"
)

// This file holds the seed's reference implementations, which only tests
// reach: the map-based range region builder and its flattening (the
// oracle of Server.region), the exhaustive snap scan (the oracle of the
// snap grid) and the edge length lookup.

// EdgeLen returns the length of the edge between nodes a and b (0 if no
// such edge).
func (s *Server) EdgeLen(a, b int) float64 { return s.edgeLen[edgeKey(a, b)] }

// distRow runs a fresh single-source search from a position: the network
// distance to every junction.
func (s *Server) distRow(from Position) []float64 {
	return s.sssp(from, make([]float64, s.net.NumNodes()), new(roadnet.NodeQueue))
}

// snapSlow is the exhaustive projection scan the grid accelerates; it is
// retained as the differential oracle for the grid's exactness fence.
func (b *Backend) snapSlow(p geom.Point) Position {
	net := b.s.net
	best := math.Inf(1)
	var pos Position
	for a := range net.Adj {
		pa := net.Nodes[a].P
		for _, e := range net.Adj[a] {
			if e.To < a {
				continue // each undirected edge once
			}
			pb := net.Nodes[e.To].P
			ab := pb.Sub(pa)
			den := ab.Dot(ab)
			t := 0.0
			if den > 0 {
				t = p.Sub(pa).Dot(ab) / den
				if t < 0 {
					t = 0
				} else if t > 1 {
					t = 1
				}
			}
			if d2 := p.Dist2(pa.Add(ab.Scale(t))); d2 < best {
				best = d2
				pos = Position{A: a, B: e.To, T: t}
			}
		}
	}
	return pos
}

// RangeRegion is the seed's map-based network range region, kept as the
// reference that Server.region is fenced against: every point of the
// road network within network distance Radius of Center, as the covered
// interval of each touched edge.
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

// exportRegion flattens a RangeRegion into the Region that Server.region
// builds, its junction distances sorted by id. The segment order is
// deterministic: covered edges ascending by (smaller
// endpoint, larger endpoint), intervals in their normalized (sorted,
// merged) order, then any boundary nodes whose incident intervals
// degenerate to nothing, ascending by id.
func (s *Server) exportRegion(rr *RangeRegion, center geom.Point) *Region {
	out := &Region{Center: center, Radius: rr.Radius, cpos: rr.Center, hasPos: true}
	for n, d := range rr.nodeDist {
		out.junctions = append(out.junctions, roadnet.NodeDist{Node: n, Dist: d})
	}
	sort.Slice(out.junctions, func(i, j int) bool { return out.junctions[i].Node < out.junctions[j].Node })
	if math.IsInf(rr.Radius, 1) {
		return out // contains everything; no segment list needed
	}
	keys := make([][2]int, 0, len(rr.edges))
	for k := range rr.edges {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i][0] != keys[j][0] {
			return keys[i][0] < keys[j][0]
		}
		return keys[i][1] < keys[j][1]
	})
	for _, k := range keys {
		a, b := s.net.Nodes[k[0]].P, s.net.Nodes[k[1]].P
		for _, iv := range rr.edges[k] {
			out.Segs = append(out.Segs, Segment{A: lerp(a, b, iv.Lo), B: lerp(a, b, iv.Hi)})
		}
	}
	// A node at exactly Radius is covered but spans no interval on any
	// incident edge; keep it as a degenerate segment so containment at
	// the boundary matches RangeRegion's node test.
	var boundary []int
	for n, d := range rr.nodeDist {
		if d == rr.Radius {
			boundary = append(boundary, n)
		}
	}
	sort.Ints(boundary)
	for _, n := range boundary {
		p := s.net.Nodes[n].P
		out.Segs = append(out.Segs, Segment{A: p, B: p})
	}
	return out
}
