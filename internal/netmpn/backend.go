package netmpn

import (
	"cmp"
	"math"
	"runtime"
	"slices"
	"sync"

	"mpn/internal/core"
	"mpn/internal/geom"
	"mpn/internal/gnn"
	"mpn/internal/roadnet"
	"mpn/internal/rtree"
)

// BackendConfig configures the network backend. The zero value selects
// Max aggregation.
type BackendConfig struct {
	// Aggregate selects network MPN (Max) or Sum-MPN (Sum).
	Aggregate Aggregate
	// CacheEntries is accepted and ignored (bench/ still sets it).
	CacheEntries int
}

// Backend is the road-network planning backend behind core.Plan: it
// implements core.NetBackend over a Server and a table of the exact
// network distance from every POI to every junction.
//
// Where the naive Server.Plan pays one full single-source Dijkstra per
// member per query, the backend pays one per POI at construction
// (|POI| Dijkstras, |POI|·|V|·8 bytes — 2.3 MB for 178 POIs on 1,600
// junctions) and a plan is then one scan: a member on edge (A,B) at
// offsets (offA, offB) is min(offA+d(p,A), offB+d(p,B)) from POI p, so
// the exact top-2 over every POI costs O(m·|POI|) loads and no search.
//
// The table is rooted at the POIs, the oracle's Dijkstras at the users.
// On an undirected network (which NewServer enforces) both compute the
// same shortest-path length, but sum the same edge lengths in opposite
// order, so the two agree to rounding — 1e-12 relative, the fence
// backend_test.go enforces — not bitwise, and exact ties between POIs may
// resolve differently. The bitwise fence is against brute force over the
// same POI-rooted distances.
//
// A fresh region is one truncated Dijkstra from the member's snapped
// position (Server.region), run in scratch the workspace owns — a dense
// distance row cleaned on entry, one queue, one interval buffer — so a
// plan allocates only what it returns: the region slice, and per fresh
// region the Region, its Segs and its junction distances. The
// incremental arm runs no search: a clean member's drift from her
// retained center is read off the junction distances her region was
// grown with, a slice sorted by junction id, by binary search
// (Region.drift).
//
// A Backend is immutable after construction and safe for concurrent use
// with distinct workspaces and plan states.
type Backend struct {
	s    *Server
	agg  Aggregate
	grid *snapGrid
	// poiDist[v*len(s.pois)+j] is the network distance between junction v
	// and POI j: node-major, so the distances a member's scan reads from
	// one endpoint are contiguous.
	poiDist []float64
}

// NewBackend builds a backend over the network and POI placement,
// precomputing the POI distance table.
func NewBackend(net *roadnet.Network, poiNodes []int, cfg BackendConfig) (*Backend, error) {
	s, err := NewServer(net, poiNodes)
	if err != nil {
		return nil, err
	}
	return &Backend{s: s, agg: cfg.Aggregate, grid: buildSnapGrid(net), poiDist: buildPOIDist(s)}, nil
}

// buildPOIDist runs one Dijkstra per POI — rows are independent, so
// GOMAXPROCS goroutines take every workers-th POI, each reusing one row
// and one queue — and scatters each into the node-major table. A cell's
// value depends only on its POI's own search, never on which goroutine
// ran it.
func buildPOIDist(s *Server) []float64 {
	np := len(s.pois)
	table := make([]float64, s.net.NumNodes()*np)
	workers := min(runtime.GOMAXPROCS(0), np)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			row := make([]float64, s.net.NumNodes())
			var q roadnet.NodeQueue
			for j := w; j < np; j += workers {
				for v, d := range s.sssp(NodePos(s.pois[j]), row, &q) {
					table[v*np+j] = d
				}
			}
		}()
	}
	wg.Wait()
	return table
}

// Server exposes the underlying naive server — the differential oracle
// and baseline for the backend's plans.
func (b *Backend) Server() *Server { return b.s }

// Snap projects a Euclidean point onto the nearest road segment. The
// scan is deterministic (first edge in adjacency order wins ties), so
// equal inputs always land on equal network positions — what the
// differential fences rely on to feed planner and oracle identical
// queries.
func (b *Backend) Snap(p geom.Point) Position { return b.grid.snap(p) }

// posPoint returns the Euclidean location of a network position.
func (s *Server) posPoint(p Position) geom.Point {
	a := s.net.Nodes[p.A].P
	if p.A == p.B {
		return a
	}
	return lerp(a, s.net.Nodes[p.B].P, p.T)
}

// netScratch is the backend's per-workspace scratch (stored in
// core.Workspace.NetScratch), reused across plans.
type netScratch struct {
	pos   []Position
	dirty []bool
	agg   []float64 // per-POI aggregate distance of the plan in flight

	// Scratch of the region search (Server.region): dist has one entry
	// per junction and is +Inf except at the junctions listed in
	// touched; q is its frontier and spans the covered edge intervals.
	dist    []float64
	touched []int
	q       roadnet.NodeQueue
	spans   []edgeSpan
}

func (b *Backend) scratch(ws *core.Workspace) *netScratch {
	slot := ws.NetScratch()
	ns, _ := (*slot).(*netScratch)
	if ns == nil {
		ns = new(netScratch)
		*slot = ns
	}
	return ns
}

// grow returns s with length exactly m, preserving capacity (the
// core.Workspace idiom, restated here because core does not export it).
func grow[T any](s []T, m int) []T {
	if cap(s) < m {
		s = append(s[:cap(s)], make([]T, m-cap(s))...)
	}
	return s[:m]
}

// PlanNet implements core.NetBackend: the network planning entry point
// behind core.Plan for KindNetRange requests. Users arrive as Euclidean
// points and are snapped to the nearest road segment; the returned
// Plan.Best carries the meeting POI's node id and Euclidean location,
// and every region is a *Region payload wrapped in core.NetRegion.
func (b *Backend) PlanNet(ws *core.Workspace, req core.PlanRequest) (core.Plan, core.IncOutcome, error) {
	users := req.Users
	if len(users) == 0 {
		return core.Plan{}, core.IncFull, core.ErrNoUsers
	}
	ns := b.scratch(ws)
	ns.pos = grow(ns.pos, len(users))
	for i, u := range users {
		ns.pos[i] = b.Snap(u)
	}

	var plan core.Plan
	plan.Stats.GNNCalls = 1
	plan.Stats.CandidatesChecked = len(b.s.pois)
	best, second := b.top2(ns)
	if best.Node == -1 || math.IsInf(best.Dist, 1) {
		return plan, core.IncFull, ErrUnreachable
	}
	plan.Best = gnn.Result{
		Item: rtree.Item{P: b.s.net.Nodes[best.Node].P, ID: best.Node},
		Dist: best.Dist,
	}
	r := radiusOf(best, second, b.agg, len(users))

	full := func() (core.Plan, core.IncOutcome, error) {
		plan.Regions = make([]core.SafeRegion, len(users))
		for i := range users {
			plan.Regions[i] = core.NetRegion(b.s.region(ns, ns.pos[i], r))
		}
		if req.State != nil {
			req.State.Record(plan)
		}
		return plan, core.IncFull, nil
	}

	st := req.State
	if st == nil {
		return full()
	}
	if !st.Usable(0, users, core.KindNetRange) || best.Node != st.BestID() || r <= 0 {
		return full()
	}

	// Mirror of the Euclidean circle incremental protocol (the
	// KindCircle arm of core.Planner.Plan): retained network range regions are
	// position-independent — membership of every point within network
	// radius r_old of the old center is a static fact — so the retained
	// set stays jointly safe as long as each member's possible positions
	// remain within the fresh Theorem 1/5 budget. A clean member roams at
	// most drift(u_i, c_i) + r_old from her current location; a dirty
	// member gets a fresh region of radius r. The mixed set is safe when
	// max_i ρ'_i ≤ gap/2 (MAX) or Σ_i ρ'_i ≤ gap/2 (SUM) — network
	// distance is a metric, so the triangle-inequality argument carries
	// over verbatim.
	gap := math.Inf(1)
	if second.Node != -1 {
		gap = second.Dist - best.Dist
		if gap < 0 {
			gap = 0
		}
	}
	retained := st.Regions()
	ns.dirty = grow(ns.dirty, len(users))
	ndirty := 0
	var maxRho, sumRho float64
	for i := range users {
		nr, ok := retained[i].Net.(*Region)
		if !ok || !nr.hasPos {
			return full() // foreign or decoded payload: no drift basis
		}
		// Cleanliness is judged at the member's snapped network position —
		// the position planning itself uses — so an off-road GPS report a
		// snap away from a covered segment does not spuriously dirty her.
		rho := r
		in := nr.ContainsPoint(b.s.posPoint(ns.pos[i]))
		ns.dirty[i] = !in
		if in {
			rho = nr.drift(b.s, ns.pos[i]) + nr.Radius
		} else {
			ndirty++
		}
		if rho > maxRho {
			maxRho = rho
		}
		sumRho += rho
	}
	safe := maxRho <= gap/2
	if b.agg == Sum {
		safe = sumRho <= gap/2
	}
	if !safe {
		return full()
	}
	if ndirty == 0 {
		plan.Regions = retained
		return plan, core.IncKept, nil
	}
	regions := make([]core.SafeRegion, len(users))
	for i := range users {
		if ns.dirty[i] {
			regions[i] = core.NetRegion(b.s.region(ns, ns.pos[i], r))
		} else {
			regions[i] = retained[i]
		}
	}
	plan.Regions = regions
	st.Record(plan)
	return plan, core.IncPartial, nil
}

// radiusOf computes the Theorem 1/5 safe radius exactly as Server.Plan
// does (same operations, same order).
func radiusOf(best, second Result, agg Aggregate, m int) float64 {
	if second.Node == -1 {
		return math.Inf(1) // single POI: never displaced
	}
	gap := second.Dist - best.Dist
	if gap < 0 {
		gap = 0
	}
	if agg == Max {
		return gap / 2
	}
	return gap / (2 * float64(m))
}

// drift returns the network distance between the region's center and p:
// along their common street, or through an endpoint of p's street using
// the center's retained junction distances. It is exact for every p
// inside the region — a shortest path from the center to such a p enters
// p's street through a junction within Radius, which junctions holds —
// and an over-estimate (possibly +Inf) outside, which only makes the
// caller's safety test more conservative. No search is run.
func (r *Region) drift(s *Server, p Position) float64 {
	l := s.edgeLen[edgeKey(p.A, p.B)] // 0 at a node (A == B)
	d := math.Inf(1)
	if v, ok := r.junctionDist(p.A); ok {
		d = v + p.T*l
	}
	if v, ok := r.junctionDist(p.B); ok {
		d = min(d, v+(1-p.T)*l)
	}
	if c := r.cpos; c.A != c.B && edgeKey(c.A, c.B) == edgeKey(p.A, p.B) {
		ct := c.T
		if c.A != p.A {
			ct = 1 - ct // express both offsets from p's A endpoint
		}
		d = min(d, math.Abs(p.T-ct)*l)
	}
	return d
}

// junctionDist returns the retained distance from the center to junction
// n, if n lies within Radius: a binary search of the sorted junctions.
func (r *Region) junctionDist(n int) (float64, bool) {
	i, ok := slices.BinarySearchFunc(r.junctions, n, func(e roadnet.NodeDist, n int) int { return cmp.Compare(e.Node, n) })
	if !ok {
		return 0, false
	}
	return r.junctions[i].Dist, true
}

// top2 finds the best and runner-up meeting POIs under the aggregate
// network distance: the exact aggregate of every POI, read from the
// table, fed in POI order to the two-register selection Server.Plan uses
// (earliest-index minimum, then earliest-index minimum of the rest).
func (b *Backend) top2(ns *netScratch) (best, second Result) {
	np := len(b.s.pois)
	ns.agg = grow(ns.agg, np)
	clear(ns.agg)
	for _, pos := range ns.pos {
		l := b.s.edgeLen[edgeKey(pos.A, pos.B)] // 0 at a node (A == B)
		offA, offB := pos.T*l, (1-pos.T)*l
		rowA := b.poiDist[pos.A*np:][:np]
		rowB := b.poiDist[pos.B*np:][:np]
		for j, d := range rowA {
			d += offA
			if v := offB + rowB[j]; v < d {
				d = v
			}
			if b.agg == Sum {
				ns.agg[j] += d
			} else if d > ns.agg[j] {
				ns.agg[j] = d
			}
		}
	}
	best = Result{Node: -1, Dist: math.Inf(1)}
	second = best
	for j, d := range ns.agg {
		switch {
		case d < best.Dist:
			second = best
			best = Result{Node: b.s.pois[j], Dist: d}
		case d < second.Dist:
			second = Result{Node: b.s.pois[j], Dist: d}
		}
	}
	return best, second
}
