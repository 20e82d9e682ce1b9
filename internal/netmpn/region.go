package netmpn

import (
	"cmp"
	"math"
	"slices"

	"mpn/internal/roadnet"
)

// edgeSpan is one covered [lo, hi] fraction range of the edge between
// junctions a ≤ b, as fractions along it from a.
type edgeSpan struct {
	a, b   int
	lo, hi float64
}

func cmpSpan(x, y edgeSpan) int {
	if c := cmp.Compare(x.a, y.a); c != 0 {
		return c
	}
	if c := cmp.Compare(x.b, y.b); c != 0 {
		return c
	}
	if c := cmp.Compare(x.lo, y.lo); c != 0 {
		return c
	}
	return cmp.Compare(x.hi, y.hi)
}

// region builds the network range safe region of the given radius around
// center — every point of the road network within network distance
// radius of it, the paper's "range search region over road segments" —
// in sc's scratch, so once that has grown, the returned Region, its Segs
// and its junction distances are all it allocates.
//
// A truncated Dijkstra runs over sc's dense distance row. Each reached
// junction a covers its first radius − d(a) of every incident edge, and
// the center's own edge is covered for radius on both sides of it. The
// covered intervals are sorted once by (edge, lo, hi) and merged: an
// interval that starts within 1e-12 of the previous one's end extends
// it. Segs holds the merged intervals in ascending edge order, then every
// junction at exactly radius (covered, yet spanning no interval) as a
// degenerate segment, ascending by id. A +Inf radius is the whole
// network: no Segs, and every junction retained at distance 0.
func (s *Server) region(sc *netScratch, center Position, radius float64) *Region {
	r := &Region{Center: s.posPoint(center), Radius: radius, cpos: center, hasPos: true}
	if math.IsInf(radius, 1) {
		r.junctions = make([]roadnet.NodeDist, s.net.NumNodes())
		for v := range r.junctions {
			r.junctions[v].Node = v
		}
		return r
	}
	sc.reset(s.net.NumNodes())
	if center.A == center.B {
		sc.reach(center.A, 0, radius)
	} else {
		l := s.edgeLen[edgeKey(center.A, center.B)]
		sc.reach(center.A, center.T*l, radius)
		sc.reach(center.B, (1-center.T)*l, radius)
		// The center's own edge is partially covered around T even when
		// the endpoints are out of range.
		sc.coverAround(center, l, radius)
	}
	for len(sc.q) > 0 {
		e := sc.q.Pop()
		if e.Dist > sc.dist[e.Node] {
			continue
		}
		for _, ed := range s.net.Adj[e.Node] {
			sc.reach(ed.To, e.Dist+ed.Len, radius)
		}
	}
	for _, a := range sc.touched {
		for _, ed := range s.net.Adj[a] {
			if ed.Len == 0 {
				sc.cover(a, ed.To, 0, 1)
				continue
			}
			reach := (radius - sc.dist[a]) / ed.Len
			if reach <= 0 {
				continue
			}
			if reach > 1 {
				reach = 1
			}
			if a < ed.To {
				sc.cover(a, ed.To, 0, reach)
			} else {
				sc.cover(a, ed.To, 1-reach, 1)
			}
		}
	}

	slices.SortFunc(sc.spans, cmpSpan)
	merged := sc.spans[:0]
	for _, iv := range sc.spans {
		if k := len(merged) - 1; k >= 0 && merged[k].a == iv.a && merged[k].b == iv.b && iv.lo <= merged[k].hi+1e-12 {
			if iv.hi > merged[k].hi {
				merged[k].hi = iv.hi
			}
			continue
		}
		merged = append(merged, iv)
	}
	slices.Sort(sc.touched)
	n := len(merged)
	for _, v := range sc.touched {
		if sc.dist[v] == radius {
			n++
		}
	}
	r.Segs = make([]Segment, 0, n)
	for _, iv := range merged {
		a, b := s.net.Nodes[iv.a].P, s.net.Nodes[iv.b].P
		r.Segs = append(r.Segs, Segment{A: lerp(a, b, iv.lo), B: lerp(a, b, iv.hi)})
	}
	r.junctions = make([]roadnet.NodeDist, len(sc.touched))
	for i, v := range sc.touched {
		r.junctions[i] = roadnet.NodeDist{Node: v, Dist: sc.dist[v]}
		if sc.dist[v] == radius {
			p := s.net.Nodes[v].P
			r.Segs = append(r.Segs, Segment{A: p, B: p})
		}
	}
	return r
}

// reset readies the region search for a network of n junctions. It runs
// on entry, not on exit: the engine recovers a planner panic and keeps
// the worker's workspace, so a search cut off mid-way may have left
// distances behind, and touched lists every one of them.
func (sc *netScratch) reset(n int) {
	if len(sc.dist) != n {
		sc.dist = grow(sc.dist, n)
		for i := range sc.dist {
			sc.dist[i] = math.Inf(1)
		}
	} else {
		for _, v := range sc.touched {
			sc.dist[v] = math.Inf(1)
		}
	}
	sc.touched = sc.touched[:0]
	sc.q = sc.q[:0]
	sc.spans = sc.spans[:0]
}

// reach records junction n at distance d and queues it, if d is within
// radius and shorter than any distance n already has.
func (sc *netScratch) reach(n int, d, radius float64) {
	if d > radius || d >= sc.dist[n] {
		return
	}
	if math.IsInf(sc.dist[n], 1) {
		sc.touched = append(sc.touched, n)
	}
	sc.dist[n] = d
	sc.q.Push(n, d)
}

// cover records [lo, hi] of the edge between a and b, as fractions from
// its smaller-id endpoint.
func (sc *netScratch) cover(a, b int, lo, hi float64) {
	if a > b {
		a, b = b, a
	}
	sc.spans = append(sc.spans, edgeSpan{a: a, b: b, lo: lo, hi: hi})
}

// coverAround covers the center's own edge for radius on both sides of T.
func (sc *netScratch) coverAround(center Position, edgeLen, radius float64) {
	if edgeLen == 0 {
		sc.cover(center.A, center.B, 0, 1)
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
		sc.cover(center.A, center.B, lo, hi)
	} else {
		// Zero radius still covers the exact point.
		sc.cover(center.A, center.B, t, t)
	}
}
