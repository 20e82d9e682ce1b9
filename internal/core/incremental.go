package core

import (
	"math"

	"mpn/internal/geom"
	"mpn/internal/gnn"
)

// IncOutcome reports how an incremental replanning call satisfied an
// update.
type IncOutcome int

const (
	// IncFull means the whole plan was recomputed from scratch: the
	// retained state was missing or stale, the result set churned, the
	// optimum was degenerate, most members of a group of at most three
	// escaped their regions, or a partial regrow could not cover a
	// reporting user. Full-replan output is byte-identical to the same
	// request without a State.
	IncFull IncOutcome = iota
	// IncPartial means the result set was unchanged and only the dirty
	// users — those whose reported location escaped their retained region
	// (in a group of at most three, at most half of it) — had their
	// regions regrown; every clean member kept her region verbatim.
	IncPartial
	// IncKept means the result set was unchanged and every member is
	// still inside her retained region: the entire previous plan remains
	// valid and was returned as-is (regions alias the retained plan).
	IncKept
)

// String implements fmt.Stringer.
func (o IncOutcome) String() string {
	switch o {
	case IncPartial:
		return "partial"
	case IncKept:
		return "kept"
	default:
		return "full"
	}
}

// PlanState is the retained outcome of a group's last safe-region
// computation: the result-set identity and the exported regions the
// incremental planners validate against. The zero value is ready to use
// and invalid, so the first computation through it replans fully. A
// PlanState is not safe for concurrent use; the engine guards each
// group's state with the group's replan lock.
type PlanState struct {
	valid   bool
	bestID  int
	version uint64 // index version the retained plan was computed against
	regions []SafeRegion
}

// Valid reports whether the state holds a retained plan.
func (st *PlanState) Valid() bool { return st.valid }

// Invalidate drops the retained plan, forcing the next incremental call
// down the full-replan path — what the engine does when a planner panic
// may have left the state torn.
func (st *PlanState) Invalidate() {
	st.valid = false
	st.regions = nil
}

// Regions exposes the retained regions (read-only; they are exported
// plan copies).
func (st *PlanState) Regions() []SafeRegion { return st.regions }

// Record retains a freshly computed plan as the state to validate the
// next update against. The incremental planners call it on every
// non-kept outcome; custom engine.ReplanWSFunc implementations use it
// the same way. Exported plans never alias workspace memory, so holding
// them across computations is safe.
func (st *PlanState) Record(p Plan) {
	st.valid = true
	st.bestID = p.Best.Item.ID
	st.version = p.Stats.IndexVersion
	st.regions = p.Regions
}

// tileMSRInc is the incremental variant of tileMSR: it maintains
// st across calls and recomputes only what the reported locations
// invalidate.
//
// Every call recomputes the top-k GNN result set at the fresh locations
// (one index traversal — the irreducible cost of knowing the optimum
// moved). Then:
//
//   - If st holds no plan, the optimum POI changed, or the safe radius is
//     degenerate, the regions are regrown from scratch (IncFull),
//     byte-identical to a tileMSR call.
//   - Otherwise members are re-verified by containment: a member whose
//     reported location escaped her retained region is dirty. With no
//     dirty members the whole retained plan is still a valid safe-region
//     set and is returned as-is (IncKept).
//   - Otherwise, if most members of a group of at most majorityMaxGroup
//     are dirty (2·dirty > m), every region is regrown from scratch
//     (IncFull): regrown around the retained regions, the escapees are
//     crowded into small regions that cost more tile verifies than a
//     full regrow and are escaped again sooner.
//   - Otherwise only the dirty members' regions are regrown (IncPartial):
//     clean members keep their tiles verbatim and the grower verifies
//     every new tile against the mixed region set.
//
// Soundness of the partial regrow: a tile-region set is a valid safe
// region set for p° iff every tile group ⟨s1∈T1,…,sm∈Tm⟩ passes the
// group verification against every candidate POI — a property of the
// tiles, p°, and the candidates alone, independent of where the users
// currently stand. A complete group contains one tile per user, so it
// contains a tile from every dirty user's new region; consider the tile
// among those that was accepted LAST. At its acceptance, every other
// member of the group was already present in the hypothetical region
// set, so its Divide-Verify checked exactly this group, against
// candidates collected fresh under the Theorem 3/6 pruning bounds (or
// excluded fresh by the Theorem 4/7 buffer thresholds) evaluated at the
// current locations and the mixed hypothetical regions. Every complete
// (group, candidate) pair is therefore either verified or provably
// irrelevant, with no reliance on the previous run's (stale) candidate
// exclusions. The transitivity matters: a tile accepted EARLIER — in
// particular a seed accepted while another dirty user's set was still
// empty, which both verifiers pass vacuously (no complete group exists
// yet) — is NOT fully vetted by its own acceptance; it is covered
// because every complete group through it also contains a later-accepted
// tile whose check saw it. Unlike a full run, the dirty user's seed tile
// is still submitted to Divide-Verify rather than inserted by fiat —
// Theorem 1 covers the unverified seed only when all regions fit the
// fresh safe radius, which retained regions need not. If the seed's
// Divide-Verify leaves a dirty user uncovered (the retained regions left
// it no room under the fresh thresholds), growTiles stops there, since no
// growth round adds a tile containing her location, and the call falls
// back to a full replan, which shrinks everyone.
//
// The returned plan is exported by copy except on IncKept, where
// Plan.Regions aliases the retained (immutable, previously exported)
// regions.
func (pl *Planner) tileMSRInc(ws *Workspace, st *PlanState, users []geom.Point, dirs []Direction) (Plan, IncOutcome, error) {
	if len(users) == 0 {
		return Plan{}, IncFull, ErrNoUsers
	}
	if len(dirs) != len(users) {
		dirs = nil
	}
	// One snapshot for the whole update, fallbacks included: every
	// traversal of this call — the result-set check, a partial regrow,
	// and any full replan it degrades to — sees the same index state.
	snap := pl.Acquire()
	defer snap.Release()
	if !st.Usable(snap.version, users, KindTiles) {
		plan, err := pl.tileMSRSnap(ws, snap, users, dirs)
		if err != nil {
			return plan, IncFull, err
		}
		st.Record(plan)
		return plan, IncFull, nil
	}

	var plan Plan
	plan.Stats.IndexVersion = snap.version
	ws.topk = gnn.TopKInto(snap.tree, &ws.gnn, users, pl.opts.Aggregate, pl.topK(), ws.topk[:0])
	plan.Stats.GNNCalls++
	plan.Best = ws.topk[0]

	if plan.Best.Item.ID != st.bestID || pl.circleRadius(users, ws.topk) <= 0 {
		// Result-set churn (or a degenerate tie): every region must
		// regrow around the new optimum.
		pl.growTiles(ws, snap, &plan, users, dirs, ws.topk, nil, nil)
		st.Record(plan)
		return plan, IncFull, nil
	}

	dirty := ws.resizeDirty(len(users))
	ndirty := 0
	for i, u := range users {
		d := !st.regions[i].Contains(u)
		dirty[i] = d
		if d {
			ndirty++
		}
	}
	if ndirty == 0 {
		plan.Regions = st.regions
		return plan, IncKept, nil
	}

	if !regrowAll(len(users), ndirty) && pl.growTiles(ws, snap, &plan, users, dirs, ws.topk, st.regions, dirty) {
		st.Record(plan)
		return plan, IncPartial, nil
	}
	// Carry a doomed partial's counters into the full replan's stats: it
	// is work this update really performed.
	full := Plan{Best: plan.Best, Stats: plan.Stats}
	pl.growTiles(ws, snap, &full, users, dirs, ws.topk, nil, nil)
	st.Record(full)
	return full, IncFull, nil
}

// majorityMaxGroup is the largest group whose escaped majority takes the
// full regrow: the rule is measured only on groups of three, and Fig. 13's
// Tile-D counts at m = 4–6 grew under it (ROADMAP 17).
const majorityMaxGroup = 3

// regrowAll reports whether ndirty of m escapees skip the partial regrow.
func regrowAll(m, ndirty int) bool { return m <= majorityMaxGroup && 2*ndirty > m }

// circleMSRInc is the incremental variant of circleMSR. The top-2
// GNN is recomputed on every call (it is nearly the entire cost of circle
// planning); the incremental win is keeping clean members' circles so
// only dirty members receive new regions over the wire.
//
// Soundness of the mixed circle set: let ρ'_i be the maximum distance
// from user i's current location to her region and gap the fresh top-2
// aggregate spread ‖p²,U‖ − ‖p°,U‖. For any locations L inside the
// regions and any POI p ∉ {p°},
//
//	MAX:  ‖p°,L‖max ≤ ‖p°,U‖max + max_i ρ'_i,  ‖p,L‖max ≥ ‖p²,U‖max − max_i ρ'_i
//	SUM:  the same with sums and Σ_i ρ'_i,
//
// so the mixed set is safe when max_i ρ'_i ≤ gap/2 (MAX) or
// Σ_i ρ'_i ≤ gap/2 (SUM) — the Theorem 1/5 conditions restated from the
// current locations. A dirty member's fresh circle contributes exactly
// the common radius r (gap/2 under MAX, gap/(2m) under SUM); a clean
// member's retained circle contributes its radius plus her drift from
// the center. When the condition fails the call falls back to a full
// replan, handing everyone fresh circles.
func (pl *Planner) circleMSRInc(ws *Workspace, st *PlanState, users []geom.Point) (Plan, IncOutcome, error) {
	if len(users) == 0 {
		return Plan{}, IncFull, ErrNoUsers
	}
	snap := pl.Acquire()
	defer snap.Release()
	var plan Plan
	plan.Stats.IndexVersion = snap.version
	ws.topk = gnn.TopKInto(snap.tree, &ws.gnn, users, pl.opts.Aggregate, 2, ws.topk[:0])
	plan.Stats.GNNCalls++
	plan.Best = ws.topk[0]
	r := pl.circleRadius(users, ws.topk)

	full := func() (Plan, IncOutcome, error) {
		plan.Regions = make([]SafeRegion, len(users))
		for i, u := range users {
			plan.Regions[i] = CircleRegion(u, r)
		}
		st.Record(plan)
		return plan, IncFull, nil
	}

	if !st.Usable(snap.version, users, KindCircle) || plan.Best.Item.ID != st.bestID || r <= 0 {
		return full()
	}

	gap := math.Inf(1)
	if len(ws.topk) >= 2 {
		gap = ws.topk[1].Dist - ws.topk[0].Dist
		if gap < 0 {
			gap = 0
		}
	}
	ndirty := 0
	var maxRho, sumRho float64
	for i, u := range users {
		rho := r
		if st.regions[i].Contains(u) {
			rho = st.regions[i].MaxDist(u)
		} else {
			ndirty++
		}
		if rho > maxRho {
			maxRho = rho
		}
		sumRho += rho
	}
	safe := maxRho <= gap/2
	if pl.opts.Aggregate == gnn.Sum {
		safe = sumRho <= gap/2
	}
	if !safe {
		return full()
	}
	if ndirty == 0 {
		plan.Regions = st.regions
		return plan, IncKept, nil
	}

	regions := make([]SafeRegion, len(users))
	for i, u := range users {
		if st.regions[i].Contains(u) {
			regions[i] = st.regions[i]
		} else {
			regions[i] = CircleRegion(u, r)
		}
	}
	plan.Regions = regions
	st.Record(plan)
	return plan, IncPartial, nil
}

// BestID returns the retained result-set identity (the POI id Record
// saved from Plan.Best); meaningless unless Valid.
func (st *PlanState) BestID() int { return st.bestID }

// Usable reports whether the retained state can seed an incremental run
// against the given snapshot version for the given group shape and
// region kind. Size mismatches (membership churn) and kind mismatches
// force a full replan; so does any POI mutation since the retained plan
// was recorded (st.version != version) — the retained regions were
// verified against a candidate set the mutation may have changed, so
// their tiles carry no guarantee under the fresh snapshot. The built-in
// incremental planners and backends outside core (see NetBackend) run
// this same gate before trusting st.
func (st *PlanState) Usable(version uint64, users []geom.Point, kind RegionKind) bool {
	if !st.valid || st.version != version || len(st.regions) != len(users) {
		return false
	}
	for i := range st.regions {
		if st.regions[i].Kind != kind {
			return false
		}
	}
	return true
}
