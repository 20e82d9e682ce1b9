package netmpn

import (
	"math"
	"sort"

	"mpn/internal/core"
	"mpn/internal/geom"
	"mpn/internal/gnn"
	"mpn/internal/netmpn/alt"
	"mpn/internal/roadnet"
	"mpn/internal/rtree"
)

// BackendConfig configures the landmark-accelerated network backend.
// The zero value selects Max aggregation and no neighborhood cache; the
// ALT overlay always has alt.DefaultLandmarks landmarks.
type BackendConfig struct {
	// Aggregate selects network MPN (Max) or Sum-MPN (Sum).
	Aggregate Aggregate
	// CacheEntries bounds the network neighborhood cache (see cache.go);
	// 0 disables caching. Cached plans are byte-identical to uncached.
	CacheEntries int
	// CacheK is how many network-nearest POIs each cache entry certifies;
	// 0 selects DefaultCacheK. Ignored when the cache is disabled.
	CacheK int
}

// Backend is the road-network planning backend behind core.Plan: it
// implements core.NetBackend over a Server, an ALT landmark overlay, and
// (optionally) a nearest-node-keyed neighborhood cache.
//
// Where the naive Server.Plan pays one full single-source Dijkstra per
// member per query, the backend ranks POIs by the ALT aggregate lower
// bound max_L |d(L,u) − d(L,p)| and computes exact aggregate distances —
// through per-member resumable truncated Dijkstras — only for candidates
// whose bound does not already exceed the current runner-up. The final
// (best, runner-up) pair is replayed through the oracle's own selection
// scan over the examined subset, so the backend's plan is byte-identical
// to Server.Plan's on every input (the fence backend_test.go enforces):
// any omitted POI has exact aggregate ≥ its bound > the final runner-up
// value, so it could not have displaced either register.
//
// A Backend is safe for concurrent use with distinct workspaces and
// plan states; the cache carries its own lock.
type Backend struct {
	s      *Server
	alt    *alt.Index
	agg    Aggregate
	cache  *nbrCache
	grid   *snapGrid
	poiIdx []int32 // node id → index into s.pois, -1 elsewhere
}

// NewBackend builds a backend over the network and POI placement,
// precomputing the landmark distance vectors.
func NewBackend(net *roadnet.Network, poiNodes []int, cfg BackendConfig) (*Backend, error) {
	s, err := NewServer(net, poiNodes)
	if err != nil {
		return nil, err
	}
	idx, err := alt.Build(net, alt.DefaultLandmarks)
	if err != nil {
		return nil, err
	}
	b := &Backend{s: s, alt: idx, agg: cfg.Aggregate, grid: buildSnapGrid(net)}
	b.poiIdx = make([]int32, net.NumNodes())
	for i := range b.poiIdx {
		b.poiIdx[i] = -1
	}
	for j, p := range s.pois {
		b.poiIdx[p] = int32(j)
	}
	if cfg.CacheEntries > 0 {
		b.cache = newNbrCache(cfg.CacheEntries, cfg.CacheK)
	}
	return b, nil
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

// posPoint returns the Euclidean location of a network position.
func (s *Server) posPoint(p Position) geom.Point {
	a := s.net.Nodes[p.A].P
	if p.A == p.B {
		return a
	}
	return lerp(a, s.net.Nodes[p.B].P, p.T)
}

// netScratch is the backend's per-workspace scratch (stored in
// core.Workspace.NetScratch): one resumable Dijkstra per member plus the
// candidate-ranking buffers, all reused across plans.
type netScratch struct {
	searches []search
	pos      []Position
	dirty    []bool

	lb    []float64 // per-POI aggregate lower bound
	order []int     // POI indices, ascending (lb, index)
	exact []float64 // exact aggregate for examined POIs
	done  []bool    // whether exact[j] holds a value this plan
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
//
// req.Cache (the Euclidean neighborhood cache) is ignored: the backend
// carries its own network-keyed cache, configured at construction.
func (b *Backend) PlanNet(ws *core.Workspace, req core.PlanRequest) (core.Plan, core.IncOutcome, error) {
	users := req.Users
	if len(users) == 0 {
		return core.Plan{}, core.IncFull, core.ErrNoUsers
	}
	ns := b.scratch(ws)
	ns.pos = grow(ns.pos, len(users))
	ns.searches = grow(ns.searches, len(users))
	for i, u := range users {
		ns.pos[i] = b.Snap(u)
		ns.searches[i].reset(b.s, ns.pos[i])
	}

	var plan core.Plan
	plan.Stats.GNNCalls = 1
	best, second, checked := b.top2(ns, len(users))
	plan.Stats.CandidatesChecked = checked
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
			plan.Regions[i] = b.freshRegion(ns, i, r)
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
			rho = ns.searches[i].distToPos(b.s, ns.pos[i], nr.cpos) + nr.Radius
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
			regions[i] = b.freshRegion(ns, i, r)
		} else {
			regions[i] = retained[i]
		}
	}
	plan.Regions = regions
	st.Record(plan)
	return plan, core.IncPartial, nil
}

// radiusOf computes the Theorem 1/5 safe radius exactly as Server.Plan
// does (same operations, same order — the fences compare bitwise).
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

// freshRegion grows member i's network range region of radius r around
// her snapped position and exports it as a retainable payload.
func (b *Backend) freshRegion(ns *netScratch, i int, r float64) core.SafeRegion {
	rr := b.s.rangeRegion(ns.pos[i], r)
	return core.NetRegion(b.s.exportRegion(&rr, b.s.posPoint(ns.pos[i])))
}

// top2 finds the best and runner-up meeting POIs under the aggregate
// network distance, byte-identically to Server.Plan's full scan.
// checked counts POIs whose exact aggregate was computed.
//
// The examined subset comes from the neighborhood cache when a certified
// entry covers the group (see cache.go), and from the ALT bound ranking
// otherwise; either way the two-register selection runs over the subset
// in POI order, replaying the oracle's scan.
func (b *Backend) top2(ns *netScratch, m int) (best, second Result, checked int) {
	np := len(b.s.pois)
	ns.exact = grow(ns.exact, np)
	ns.done = grow(ns.done, np)
	for j := range ns.done {
		ns.done[j] = false
	}

	if b.cache != nil {
		if best, second, checked, ok := b.cacheTop2(ns, m); ok {
			return best, second, checked
		}
	}

	// Aggregate ALT lower bound per POI. A member on edge (A,B) at
	// offsets (offA, offB) satisfies d(u,p) = min(offA+d(A,p),
	// offB+d(B,p)), so min(offA+lb(A,p), offB+lb(B,p)) lower-bounds her
	// distance; the MAX/SUM combination of member bounds lower-bounds
	// the aggregate.
	ns.lb = grow(ns.lb, np)
	for j := range ns.lb {
		ns.lb[j] = 0
	}
	for i := 0; i < m; i++ {
		pos := ns.pos[i]
		if pos.A == pos.B {
			vec := b.alt.Vec(pos.A)
			for j, p := range b.s.pois {
				lb := b.alt.BoundTo(vec, p)
				if b.agg == Max {
					if lb > ns.lb[j] {
						ns.lb[j] = lb
					}
				} else {
					ns.lb[j] += lb
				}
			}
			continue
		}
		l := b.s.edgeLen[edgeKey(pos.A, pos.B)]
		offA, offB := pos.T*l, (1-pos.T)*l
		vecA, vecB := b.alt.Vec(pos.A), b.alt.Vec(pos.B)
		for j, p := range b.s.pois {
			lb := offA + b.alt.BoundTo(vecA, p)
			if v := offB + b.alt.BoundTo(vecB, p); v < lb {
				lb = v
			}
			if b.agg == Max {
				if lb > ns.lb[j] {
					ns.lb[j] = lb
				}
			} else {
				ns.lb[j] += lb
			}
		}
	}

	ns.order = grow(ns.order, np)
	for j := range ns.order {
		ns.order[j] = j
	}
	sort.Slice(ns.order, func(x, y int) bool {
		jx, jy := ns.order[x], ns.order[y]
		if ns.lb[jx] != ns.lb[jy] {
			return ns.lb[jx] < ns.lb[jy]
		}
		return jx < jy
	})

	// Examine candidates in ascending bound order, keeping the two
	// smallest exact aggregates seen; once the next bound exceeds the
	// running runner-up no unexamined POI can enter the top two.
	v1, v2 := math.Inf(1), math.Inf(1)
	for _, j := range ns.order {
		if ns.lb[j] > v2 {
			break
		}
		d := ns.exact[j]
		if !ns.done[j] {
			d = b.exactAgg(ns, j, m)
			ns.exact[j] = d
			ns.done[j] = true
			checked++
		}
		if d < v1 {
			v2, v1 = v1, d
		} else if d < v2 {
			v2 = d
		}
	}

	best, second = replayScan(b.s.pois, ns)
	return best, second, checked
}

// exactAgg computes the exact aggregate network distance from all
// members to POI j, advancing each member's resumable search just far
// enough. The member order and floating-point operations match
// Server.Plan's aggregation loop exactly.
func (b *Backend) exactAgg(ns *netScratch, j, m int) float64 {
	p := b.s.pois[j]
	var d float64
	if b.agg == Max {
		for i := 0; i < m; i++ {
			if v := ns.searches[i].distTo(b.s, p); v > d {
				d = v
			}
		}
	} else {
		for i := 0; i < m; i++ {
			d += ns.searches[i].distTo(b.s, p)
		}
	}
	return d
}

// replayScan runs the oracle's two-register selection over the examined
// subset in POI order — the step that makes the accelerated result
// byte-identical to the full scan (earliest-index minimum, then
// earliest-index minimum of the remainder).
func replayScan(pois []int, ns *netScratch) (best, second Result) {
	best = Result{Node: -1, Dist: math.Inf(1)}
	second = Result{Node: -1, Dist: math.Inf(1)}
	for j, p := range pois {
		if !ns.done[j] {
			continue
		}
		d := ns.exact[j]
		switch {
		case d < best.Dist:
			second = best
			best = Result{Node: p, Dist: d}
		case d < second.Dist:
			second = Result{Node: p, Dist: d}
		}
	}
	return best, second
}
