package core

import (
	"math"

	"mpn/internal/geom"
	"mpn/internal/gnn"
)

// DominantMaxDist returns ‖p°,R‖⊤ = max_i ‖p°,Ri‖max (Definition 5,
// Eq. 4): an upper bound of the dominant distance of p° for every location
// instance in R.
func DominantMaxDist(regions []SafeRegion, p geom.Point) float64 {
	d := 0.0
	for _, r := range regions {
		if v := r.MaxDist(p); v > d {
			d = v
		}
	}
	return d
}

// DominantMinDist returns ‖p,R‖⊥ = max_i ‖p,Ri‖min (Definition 5, Eq. 3):
// a lower bound of the dominant distance of p for every location instance
// in R.
func DominantMinDist(regions []SafeRegion, p geom.Point) float64 {
	d := 0.0
	for _, r := range regions {
		if v := r.MinDist(p); v > d {
			d = v
		}
	}
	return d
}

// Verify is the conservative test of Lemma 1 for the MAX aggregate: it
// returns true only if the candidate p cannot beat p° for any location
// instance inside the regions. False may be a false negative (the test is
// conservative).
func Verify(regions []SafeRegion, po, p geom.Point) bool {
	return DominantMaxDist(regions, po) <= DominantMinDist(regions, p)
}

// VerifySum is the Sum-MPN analog of Verify: a conservative test that p
// cannot beat p° under the sum of distances. It lower-bounds
// Σ_i min_{l∈Ri} (‖p,l‖ − ‖p°,l‖) by summing per-region minima; the sum
// being non-negative proves p° keeps winning. For tile regions the
// per-region minimum uses the exact hyperbola minimization (Section
// 6.3.1); for circles it uses min ‖p,l‖ − max ‖p°,l‖ relaxation per
// region, which matches Theorem 5's derivation.
func VerifySum(regions []SafeRegion, po, p geom.Point) bool {
	total := 0.0
	for _, r := range regions {
		total += regionFocalDiffMin(r, p, po)
	}
	return total >= 0
}

// regionFocalDiffMin returns min over l ∈ R of ‖p,l‖ − ‖p°,l‖.
func regionFocalDiffMin(r SafeRegion, p, po geom.Point) float64 {
	if r.Kind == KindCircle {
		// Exact for disks: the minimum of the focal difference over a disk
		// of radius ρ centered at c is attained on the boundary circle;
		// bounding it by ‖p,c‖ − ‖p°,c‖ − 2ρ is conservative and tight
		// enough for Theorem 5 circles. (‖p,l‖ ≥ ‖p,c‖−ρ and ‖p°,l‖ ≤
		// ‖p°,c‖+ρ.)
		return p.Dist(r.Circle.C) - po.Dist(r.Circle.C) - 2*r.Circle.R
	}
	best := math.Inf(1)
	for _, t := range r.Tiles {
		if v := geom.FocalDiffMin(t, p, po); v < best {
			best = v
		}
	}
	return best
}

// VerifyAgg dispatches to Verify or VerifySum by aggregate.
func VerifyAgg(agg gnn.Aggregate, regions []SafeRegion, po, p geom.Point) bool {
	if agg == gnn.Max {
		return Verify(regions, po, p)
	}
	return VerifySum(regions, po, p)
}

// tileSets is the per-user tile collection used during tile verification:
// the new tile {s} for the user under extension and the existing region
// tiles for everyone else.
type tileSets struct {
	users [][]geom.Rect
}

// verifyEps is the tolerance of every MAX tile-group comparison
// do > bound + eps, shared by the memoized verifier and its two oracles
// so the three decide on bit-identical arithmetic.
const verifyEps = 1e-12

// gtVerifyMax is the group tile verification for the MAX aggregate. It
// decides — exactly, in time linear in the total tile count — whether
// every tile group ⟨s1∈T1,…,sm∈Tm⟩ passes the Lemma 1 test for candidate
// p against p°.
//
// It is an algebraic restatement of Theorem 2's grouping argument: a group
// fails iff it contains an "attacker" tile t (of some user a) whose
// dominant max distance do(t)=‖p°,t‖max exceeds the group's dominant min
// distance. Choosing every other user's tile to minimize dp(·)=‖p,·‖min
// makes the group's dominant min as small as possible, namely
// max(dp(t), max_{k≠a} min_{t′∈Tk} dp(t′)). Hence some group fails iff
//
//	∃ a, t∈Ta :  do(t) > max( dp(t), max_{k≠a} minDp(k) ).
//
// Scanning all tiles with precomputed per-user minima (plus the top-2 of
// those minima to evaluate max_{k≠a} in O(1)) gives the exact answer with
// none of IT-Verify's exponential enumeration.
//
// The planner does not call it: verifyMemo carries the per-user minima
// and attacker maxima across tile attempts instead of rescanning every
// tile per candidate. This stateless form is the memo's test oracle and
// what ExactVerify exposes.
func gtVerifyMax(ts tileSets, po, p geom.Point) bool {
	minDp := make([]float64, len(ts.users))
	for k, tiles := range ts.users {
		best := math.Inf(1)
		for _, t := range tiles {
			if v := t.MinDist(p); v < best {
				best = v
			}
		}
		minDp[k] = best
	}
	var top top2
	top.of(minDp)
	for a, tiles := range ts.users {
		floor := top.maxExcl(a)
		for _, t := range tiles {
			do := t.MaxDist(po)
			dp := t.MinDist(p)
			bound := dp
			if floor > bound {
				bound = floor
			}
			if do > bound+verifyEps {
				return false
			}
		}
	}
	return true
}

// top2 holds the two largest of a group's per-user minima, so that
// max_{k≠a} mins[k] — the floor every other member imposes on a group
// through member a's tile — is an O(1) lookup.
type top2 struct {
	best1, best2 float64
	arg1         int
}

func (t *top2) of(mins []float64) {
	t.best1, t.best2, t.arg1 = math.Inf(-1), math.Inf(-1), -1
	for k, v := range mins {
		if v > t.best1 {
			t.best2 = t.best1
			t.best1, t.arg1 = v, k
		} else if v > t.best2 {
			t.best2 = v
		}
	}
}

// maxExcl returns max_{k≠a} mins[k]; −Inf for a single-member group,
// where no other member constrains the tile.
func (t *top2) maxExcl(a int) float64 {
	if a == t.arg1 {
		return t.best2
	}
	return t.best1
}

// memoCell is the verification state of one (member k, candidate c) pair
// over member k's current tiles T_k:
//
//	MAX:  lo = min_{t∈T_k} ‖c,t‖min                      (minDp_k(c))
//	      g  = max{ do(t) : t∈T_k, do(t) > ‖c,t‖min+eps }  (−Inf if none)
//	SUM:  lo = min_{t∈T_k} FocalDiffMin(t, c, p°)          (F_k(c))
//
// with do(t) = ‖p°,t‖max. min and max are exact under any association, so
// a cell folded tile by tile equals the rescan of T_k bit for bit.
type memoCell struct {
	filled bool
	lo, g  float64
}

// verifyMemo replaces the per-candidate rescans of Divide-Verify. A tile
// attempt for member i against candidate c needs, of every OTHER member
// k, only lo_k(c) and g_k(c) (MAX) or lo_k(c) (SUM) — values that change
// only when a tile joins T_k. The memo keeps one cell per (member,
// candidate), fills it on first use by one scan of the member's current
// tiles (so a candidate the attempt never reaches costs nothing), and
// folds each accepted tile into the member's filled cells. One attempt
// then costs O(m) per candidate instead of O(total tiles), and under MAX
// one compare once the candidate's floor is cached (see verifyMax).
//
// Why the MAX decision is exact. gtVerifyMax rejects iff some member a
// has a tile t with do(t) > max(dp_c(t), floor_a)+eps, floor_a =
// max_{k≠a} lo_k(c). Rounding is monotone, so max(y,z)+eps is the larger
// of y+eps and z+eps bit for bit, and x > max(y,z)+eps ⇔ x > y+eps ∧
// x > z+eps. The existential over T_a therefore collapses to
// g_a(c) > floor_a+eps: g is the largest do among exactly the tiles that
// pass the first conjunct. An empty T_k gives lo = +Inf, which reproduces
// the rescan's vacuous accept while another dirty member of a partial
// regrow is still empty.
//
// Candidates are addressed by dense slot. Buffered runs (Algorithm 5)
// assign slot z−1 to the z-th buffered competitor up front; unbuffered
// runs meet arbitrary POI ids from the pruned index search and map them
// through slotOf, a lookup table only — nothing iterates it, so no output
// depends on map order. cells is slot-major (m cells per slot), which
// keeps one verify's reads contiguous. Everything lives in the Workspace
// and is truncated, not reallocated, between plans.
//
// filledTo[k] is one past member k's highest filled slot. Attempts reach
// only the first few of a deep buffer's slots, so folding a new tile walks
// filledTo[k] cells instead of every slot.
//
// floors caches, per (slot, member i under extension), what verifyMax
// derives from the other members' cells (see memoFloor); it is laid out
// like cells. inserted counts the tiles noteTile has seen this plan and
// insertedBy[k] those of member k, so inserted − insertedBy[i] changes
// exactly when a cell that member i's floors read can change.
type verifyMemo struct {
	m          int
	sum        bool
	po         geom.Point
	pts        []geom.Point // candidate location per slot
	cells      []memoCell
	floors     []memoFloor
	filledTo   []int32
	inserted   int
	insertedBy []int
	slotOf     map[int]int32
}

// memoFloor is what a MAX verification of a tile of member i against one
// candidate c reads of the other members:
//
//	F = max_{k≠i} lo_k(c)
//	T = max{ g_a(c) : a≠i, g_a(c) > H_a+eps },  H_a = max_{k∉{a,i}} lo_k(c)
//
// (−Inf for an empty max). It is current while stamp equals
// inserted − insertedBy[i] + 1; the +1 makes a zeroed entry stale.
type memoFloor struct {
	f, t  float64
	stamp int
}

// reset empties the memo for a plan over m members.
func (vm *verifyMemo) reset(m int, agg gnn.Aggregate, po geom.Point) {
	vm.m = m
	vm.sum = agg == gnn.Sum
	vm.po = po
	vm.pts = vm.pts[:0]
	vm.cells = vm.cells[:0]
	vm.floors = vm.floors[:0]
	vm.filledTo = grown(vm.filledTo, m)
	clear(vm.filledTo)
	vm.inserted = 0
	vm.insertedBy = grown(vm.insertedBy, m)
	clear(vm.insertedBy)
	clear(vm.slotOf)
}

// addSlot appends a slot of m unfilled cells and m stale floors for a
// candidate at p.
func (vm *verifyMemo) addSlot(p geom.Point) int32 {
	slot := int32(len(vm.pts))
	vm.pts = append(vm.pts, p)
	n := len(vm.cells)
	vm.cells = grown(vm.cells, n+vm.m)
	clear(vm.cells[n:])
	vm.floors = grown(vm.floors, n+vm.m)
	clear(vm.floors[n:])
	return slot
}

// slotFor returns the slot of POI id, assigning the next one on first
// sight.
func (vm *verifyMemo) slotFor(id int, p geom.Point) int32 {
	if slot, ok := vm.slotOf[id]; ok {
		return slot
	}
	if vm.slotOf == nil {
		vm.slotOf = make(map[int]int32)
	}
	slot := vm.addSlot(p)
	vm.slotOf[id] = slot
	return slot
}

// foldSum folds tile s into a filled SUM cell of the candidate at p.
func (vm *verifyMemo) foldSum(c *memoCell, s geom.Rect, p geom.Point) {
	if v := geom.FocalDiffMin(s, p, vm.po); v < c.lo {
		c.lo = v
	}
}

// foldMax folds a tile with dp = ‖c,tile‖min and do = ‖p°,tile‖max into a
// filled MAX cell of candidate c.
func foldMax(c *memoCell, dp, do float64) {
	if dp < c.lo {
		c.lo = dp
	}
	if do > dp+verifyEps && do > c.g {
		c.g = do
	}
}

// cell returns member k's cell for slot, filling it on first use by one
// scan of region — the member's current tiles, with dos[n] = ‖p°,tile
// n‖max as insertTile recorded it, so a MAX fill pays one distance per
// tile, not two.
func (vm *verifyMemo) cell(k int, slot int32, region []geom.Rect, dos []float64) *memoCell {
	c := &vm.cells[int(slot)*vm.m+k]
	if !c.filled {
		*c = memoCell{filled: true, lo: math.Inf(1), g: math.Inf(-1)}
		if slot >= vm.filledTo[k] {
			vm.filledTo[k] = slot + 1
		}
		p := vm.pts[slot]
		for n, t := range region {
			if vm.sum {
				vm.foldSum(c, t, p)
			} else {
				foldMax(c, t.MinDist(p), dos[n])
			}
		}
	}
	return c
}

// noteTile folds a tile that just joined member k's region into every
// cell of hers that is already filled (the Hx(p′) ← min{Fx, Hx(p′)}
// update of Algorithm 6, and its MAX counterpart). Unfilled cells will
// see the tile when their first use scans the region.
//
// dps hands over distances the caller already holds: dps[c] = ‖c,s‖min
// for the slots c < len(dps), exactly as Rect.MinDist returns them. It is
// empty unless s was just verified against precisely those slots.
func (vm *verifyMemo) noteTile(k int, s geom.Rect, do float64, dps []float64) {
	vm.inserted++
	vm.insertedBy[k]++
	for slot := range int(vm.filledTo[k]) {
		c := &vm.cells[slot*vm.m+k]
		switch {
		case !c.filled:
		case vm.sum:
			vm.foldSum(c, s, vm.pts[slot])
		case slot < len(dps):
			foldMax(c, dps[slot], do)
		default:
			foldMax(c, s.MinDist(vm.pts[slot]), do)
		}
	}
}

// verifyMax decides GT-Verify for a tile of member i against the
// candidate in slot: whether every tile group ⟨T_1,…,{s}_i,…,T_m⟩ keeps
// p° no farther than the candidate. The tile enters only through
// dp = ‖c,s‖min and do = ‖p°,s‖max, and the answer is monotone in both:
// a rejection stands for every tile with a smaller dp and a larger do,
// which is what deadSubtree relies on. regions and dos are the members'
// current tiles and their ‖p°,·‖max (read only to fill cells); mins is
// caller scratch of length m.
//
// Everything else the decision reads depends on the other members' cells
// alone, so it is cached as the slot's memoFloor for member i and the
// check is one compare per side:
//
//	reject ⇔ (do > dp+eps ∧ do > F+eps) ∨ T > dp+eps.
//
// This is gtVerifyMax's test, split by the same monotone-rounding step
// as verifyMemo's: member i's own tile fails iff do > max(dp, F)+eps;
// another member a's attacker fails iff g_a > max(dp, H_a)+eps, since
// with s in the group max_{k≠a} of the minima is max(dp, H_a); and
// some attacker fails iff the largest g_a that clears its H_a clears dp.
// Between two verifications of the same (slot, i) only tiles inserted
// into member i can have been folded in, and none of F, T reads her
// cell, so an entry whose stamp still matches is the value a refill
// would produce, bit for bit.
func (vm *verifyMemo) verifyMax(mins []float64, regions []SafeRegion, dos [][]float64, i int, dp, do float64, slot int32) bool {
	fl := &vm.floors[int(slot)*vm.m+i]
	if stamp := vm.inserted - vm.insertedBy[i] + 1; fl.stamp != stamp {
		vm.floor(fl, mins, regions, dos, i, slot)
		fl.stamp = stamp
	}
	return !(do > dp+verifyEps && do > fl.f+verifyEps) && !(fl.t > dp+verifyEps)
}

// floor recomputes member i's memoFloor for slot from the other members'
// cells, filling those on first use.
func (vm *verifyMemo) floor(fl *memoFloor, mins []float64, regions []SafeRegion, dos [][]float64, i int, slot int32) {
	for k := range mins {
		if k == i {
			mins[k] = math.Inf(-1) // absent, so maxExcl(a) is H_a
		} else {
			mins[k] = vm.cell(k, slot, regions[k].Tiles, dos[k]).lo
		}
	}
	var top top2
	top.of(mins)
	fl.f, fl.t = top.maxExcl(i), math.Inf(-1)
	for a, c := range vm.cells[int(slot)*vm.m:][:vm.m] {
		if a != i && c.g > top.maxExcl(a)+verifyEps && c.g > fl.t {
			fl.t = c.g
		}
	}
}

// verifySum is Algorithm 6 (Sum-GT-Verify) over the memo: the tile is
// safe w.r.t. the candidate iff F_i(s) + Σ_{j≠i} F_j ≥ 0, where F_j is
// the memoized minimum of ‖p′,l‖ − ‖p°,l‖ over member j's current region
// (Section 6.3.1) and F_i(s) the minimum over the new tile alone.
func (vm *verifyMemo) verifySum(regions []SafeRegion, i int, s geom.Rect, slot int32) bool {
	total := geom.FocalDiffMin(s, vm.pts[slot], vm.po)
	for j := range regions {
		if j != i {
			total += vm.cell(j, slot, regions[j].Tiles, nil).lo
		}
	}
	return total >= 0
}

// itVerifyMax is IT-Verify: the naive enumeration of every tile group with
// the Lemma 1 test applied per group. Exponential in the group size; used
// by the ablation benchmark and as the test oracle for gtVerifyMax.
func itVerifyMax(ts tileSets, po, p geom.Point) bool {
	return itVerifyMaxInto(make([]int, len(ts.users)), ts, po, p)
}

// itVerifyMaxInto is itVerifyMax with the mixed-radix counter in
// caller-owned scratch (len(idx) must equal len(ts.users)).
func itVerifyMaxInto(idx []int, ts tileSets, po, p geom.Point) bool {
	m := len(ts.users)
	// A user with no tiles yet means no complete tile group exists:
	// vacuously safe, matching gtVerifyMax (whose per-user minimum over
	// the empty set is +Inf). The incremental partial regrow reaches this
	// state while seeding the first of several dirty users.
	for _, tiles := range ts.users {
		if len(tiles) == 0 {
			return true
		}
	}
	for i := range idx {
		idx[i] = 0
	}
	for {
		// Evaluate the current group.
		maxDo, maxDp := 0.0, 0.0
		for k := 0; k < m; k++ {
			t := ts.users[k][idx[k]]
			if v := t.MaxDist(po); v > maxDo {
				maxDo = v
			}
			if v := t.MinDist(p); v > maxDp {
				maxDp = v
			}
		}
		if maxDo > maxDp+verifyEps {
			return false
		}
		// Advance the mixed-radix counter.
		k := 0
		for k < m {
			idx[k]++
			if idx[k] < len(ts.users[k]) {
				break
			}
			idx[k] = 0
			k++
		}
		if k == m {
			return true
		}
	}
}
