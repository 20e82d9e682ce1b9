package core

import (
	"math"
	"sort"

	"mpn/internal/geom"
	"mpn/internal/gnn"
	"mpn/internal/rtree"
)

// Direction is one user's recent travel direction for the directed tile
// ordering: the heading angle (radians) and the learned angular deviation
// bound θ [26]. A non-positive Theta falls back to Options.Theta.
type Direction struct {
	Angle float64
	Theta float64
}

// tileMSR implements Algorithm 3 (Tile-MSR): it grows one tile-based safe
// region per user by browsing candidate tiles around each user in
// round-robin order, verifying each tile against all non-result POIs with
// the divide-and-conquer procedure of Algorithm 2, and inserting the tiles
// that pass.
//
// dirs supplies each user's recent travel direction for the directed
// ordering; it may be nil when Options.Directed is false.
//
// All scratch state is drawn from ws; the returned plan is exported by
// copy (two allocations) and remains valid after ws is reused or returned
// to the pool.
func (pl *Planner) tileMSR(ws *Workspace, users []geom.Point, dirs []Direction) (Plan, error) {
	if len(users) == 0 {
		return Plan{}, ErrNoUsers
	}
	snap := pl.Acquire()
	defer snap.Release()
	return pl.tileMSRSnap(ws, snap, users, dirs)
}

// tileMSRSnap is tileMSR against an already-pinned snapshot: the whole
// computation — GNN retrieval, candidate collection, verification —
// traverses exactly that snapshot's index, so a concurrent POI mutation
// can never tear a plan.
func (pl *Planner) tileMSRSnap(ws *Workspace, snap *Snapshot, users []geom.Point, dirs []Direction) (Plan, error) {
	if len(dirs) != len(users) {
		// Missing or mismatched headings: fall back to zero-value
		// directions (Options.Theta, heading 0) exactly as a nil dirs.
		dirs = nil
	}

	var plan Plan
	ws.topk = gnn.TopKInto(snap.tree, &ws.gnn, users, pl.opts.Aggregate, pl.topK(), ws.topk[:0])
	plan.Stats.GNNCalls++
	plan.Stats.IndexVersion = snap.version
	plan.Best = ws.topk[0]
	pl.growTiles(ws, snap, &plan, users, dirs, ws.topk, nil, nil)
	return plan, nil
}

// topK is the GNN depth of one tile computation: the runner-up for the
// safe-radius bound, or the best b+1 when buffering is enabled.
func (pl *Planner) topK() int {
	if pl.opts.Buffer > 0 && pl.opts.Buffer+1 > 2 {
		return pl.opts.Buffer + 1
	}
	return 2
}

// growTiles grows tile-based safe regions over the already-retrieved
// top-k GNN result and exports them into plan.
//
// With a nil dirty mask every user's region is grown from scratch — the
// full Tile-MSR of Algorithm 3. With a mask, only users marked dirty are
// grown: each clean user i keeps retained[i]'s tiles verbatim, and every
// hypothetical group of the verification step is formed against those
// retained tiles, so each accepted tile is verified against the mixed
// region set. Unlike the full run, a dirty user's seed tile is not
// inserted unconditionally: Theorem 1 justifies the unverified seed only
// when every region's extent is bounded by the fresh safe radius, which
// retained regions need not satisfy, so the seed is submitted to
// Divide-Verify like any other tile. Note that with several dirty users
// the earliest seeds are accepted vacuously — while a later dirty user's
// set is still empty, no complete tile group exists, and both verifiers
// report safe — so a tile's own acceptance check does NOT by itself
// cover all groups the final region set forms through it; soundness is
// transitive (see tileMSRInc for the full argument).
func (pl *Planner) growTiles(ws *Workspace, snap *Snapshot, plan *Plan, users []geom.Point, dirs []Direction, top []gnn.Result, retained []SafeRegion, dirty []bool) {
	rmax := pl.circleRadius(users, top)

	t := &ws.tp
	t.reset(pl, snap, &ws.gnn.RTree, users, top[0], &plan.Stats)

	// Degenerate case: a tie for the optimum leaves no safe radius. Each
	// user gets a point region; the next movement triggers an update.
	// (Incremental callers fall back to a full replan before reaching
	// here, so dirty is always nil on this path.)
	if rmax <= 0 {
		for i, u := range users {
			t.regions[i].Tiles = append(t.regions[i].Tiles, geom.Rect{Min: u, Max: u})
		}
		plan.Regions = exportTiles(t.regions)
		t.release()
		return
	}

	// Seed clean users' regions with their retained tiles before any
	// verification, so the running aggregates and the lazily-filled
	// verification memo see the mixed region set from the start.
	if dirty != nil {
		for i := range users {
			if !dirty[i] {
				for _, s := range retained[i].Tiles {
					t.insertTile(i, s, nil)
				}
			}
		}
	}

	if pl.opts.Buffer > 0 {
		t.initBuffer(pl.opts.Buffer, top)
	}

	delta := math.Sqrt2 * rmax
	orderings := ws.resizeOrderings(len(users))
	live := 0
	exhausted := ws.resizeExhausted(len(users))
	for i, u := range users {
		if dirty != nil && !dirty[i] {
			exhausted[i] = true
			continue
		}
		live++
		seed := geom.RectAround(u, delta)
		if dirty == nil {
			t.addTile(i, seed) // seed: inscribed square of the rmax circle
		} else {
			t.divideVerify(i, seed, pl.opts.SplitLevel)
		}
		var heading, theta float64 = 0, pl.opts.Theta
		if dirs != nil {
			heading = dirs[i].Angle
			if dirs[i].Theta > 0 {
				theta = dirs[i].Theta
			}
		}
		orderings[i].reset(u, delta, pl.maxLayers(), pl.opts.Directed, heading, theta)
	}

	// Round-robin growth, α rounds (lines 5–11 of Algorithm 3).
	for round := 0; round < pl.opts.TileLimit && live > 0; round++ {
		for i := range users {
			if exhausted[i] {
				continue
			}
			for {
				s, ok := orderings[i].next()
				if !ok {
					exhausted[i] = true
					live--
					break
				}
				if t.divideVerify(i, s, pl.opts.SplitLevel) {
					orderings[i].markAccepted()
					break
				}
			}
		}
	}

	plan.Regions = exportTiles(t.regions)
	t.release()
}

// tilePlanning is the per-computation state of one Tile-MSR run. It lives
// inside a Workspace: every slice and map below is retained across runs
// and re-truncated by reset, so a warmed-up workspace plans without
// allocating.
//
// Verification cost model. Planning time is the number of tile attempts
// times the cost of one, and the state below keeps both down.
//
// One attempt must not depend on how many tiles the regions already hold.
// Everything an attempt reads of the regions changes only when a tile is
// accepted (at most α+1 accepted attempts per member per run, against
// thousands of attempts), so the regions are summarised where they change
// — insertTile folds each tile into ext, doMax, tileDo and the member's
// filled memo cells — and an attempt costs
//
//	buffered:    O(m) for dist, a binary search for the slot z, then per
//	             candidate one ‖c,s‖min and O(m) memo reads;
//	unbuffered:  one pruned index search (bounds from ext and doMax in
//	             O(m)), then the same per candidate.
//
// A memo cell is filled by one scan of its member's tiles the first time
// a candidate reaches it, so candidates that attempts never get to —
// most of a 100-deep buffer — cost nothing.
//
// And attempts that cannot succeed should not be made. Divide-Verify
// quarters every rejected tile down to level 0 — 21 attempts for a tile
// rejected whole at L = 2 — and left to itself spends four attempts in
// five inside such subtrees (end-to-end benchmark, euclid_tile, the 320
// plans of one traced pass: 366,681 of 449,391 attempts, 34,006 of them
// all accepted). 98 % of rejections come from the candidate that rejected
// the member's previous tile, so under buffered MAX deadSubtree tries
// that one candidate, in O(m), before a tile with splits to go is
// verified; it proves 87 % of the dead top-level subtrees and 96 % of the
// dead level-1 ones dead, and those are counted as one rejected tile and
// never visited: 65,709 attempts instead of 449,391 for the same 34,006
// tiles, 2,193 verifies per plan instead of 4,053.
type tilePlanning struct {
	pl    *Planner
	snap  *Snapshot      // pinned by the entry point for the whole run
	rts   *rtree.Scratch // index traversal scratch (shared with the GNN)
	users []geom.Point
	po    geom.Point
	poID  int
	poAgg float64 // ‖p°,U‖ under the aggregate
	stats *Stats

	// regions is the scratch region set under construction; per-user tile
	// slices keep their capacity across runs. exportTiles copies them out.
	regions []SafeRegion

	// Running per-member aggregates over regions, folded in by insertTile
	// so no tile attempt rescans a region: ext[j] = max_t ‖u_j,t‖max (the
	// extent r↑_j of Theorem 3 and Algorithm 5's dist) and doMax[j] =
	// max_t ‖p°,t‖max (‖p°,R_j‖max). Both are 0 for an empty region, as
	// SafeRegion.MaxDist is.
	ext   []float64
	doMax []float64

	// tileDo[j][n] = ‖p°,regions[j].Tiles[n]‖max, recorded by insertTile so
	// a memo-cell fill reads it instead of recomputing it per candidate.
	tileDo [][]float64

	// memo carries the per-(member, candidate) verification state across
	// tile attempts (see verifyMemo).
	memo verifyMemo

	// Buffering state (Section 5.4): the distance thresholds τ_1 ≤ … ≤
	// τ_b of Algorithm 5 (τ_z is thresholds[z-1]). While buffering is
	// set, candBuf holds the competitors P*₁..b − {p°} in buffer order
	// for the whole run.
	buffering  bool
	thresholds []float64

	// witness[i] is the candidate that rejected member i's last rejected
	// tile (slot 0, the nearest rival, until one is): the one candidate
	// deadSubtree tries.
	witness []int32

	// Scratch buffers for candidate retrieval and verification. A
	// candidate is its slot in memo, which also holds its location.
	candBuf []int32
	bounds  []float64
	mins    []float64    // verifyMax per-member minima
	dps     []float64    // ‖c,s‖min per candidate of the latest MAX group verification
	ts      tileSets     // IT-Verify ablation: hypothetical per-user tile sets
	oneTile [1]geom.Rect // backing array for the ts.users[i] = {s} singleton
	itIdx   []int        // itVerifyMax mixed-radix counter

	// Pruning queries passed (by stable pointer) to the R-tree search.
	maxQ maxPruneQuery
	sumQ sumPruneQuery
}

// reset prepares the planning state for one computation, truncating every
// scratch buffer while keeping its capacity.
func (t *tilePlanning) reset(pl *Planner, snap *Snapshot, rts *rtree.Scratch, users []geom.Point, best gnn.Result, stats *Stats) {
	t.pl = pl
	t.snap = snap
	t.rts = rts
	t.users = users
	t.po = best.Item.P
	t.poID = best.Item.ID
	t.poAgg = best.Dist
	t.stats = stats
	t.buffering = false
	t.thresholds = t.thresholds[:0]
	t.candBuf = t.candBuf[:0]
	t.maxQ.t = t
	t.sumQ.t = t

	m := len(users)
	t.memo.reset(m, pl.opts.Aggregate, t.po)
	t.regions = grown(t.regions, m)
	t.ext = grown(t.ext, m)
	t.doMax = grown(t.doMax, m)
	t.tileDo = grown(t.tileDo, m)
	t.mins = grown(t.mins, m)
	t.witness = grown(t.witness, m)
	for i := range t.regions {
		t.regions[i].Kind = KindTiles
		t.regions[i].Circle = geom.Circle{}
		t.regions[i].Tiles = t.regions[i].Tiles[:0]
		t.tileDo[i] = t.tileDo[i][:0]
		t.ext[i], t.doMax[i] = 0, 0
		t.witness[i] = 0
	}
}

// release drops the references a finished run would otherwise retain
// until the next reset: without it, an idle worker's workspace pins the
// caller's users slice, the planner, and — through the stats pointer —
// the whole escaped Plan, including its exported regions.
func (t *tilePlanning) release() {
	t.pl = nil
	t.snap = nil
	t.users = nil
	t.stats = nil
}

// initBuffer takes the best b+1 meeting points (retrieved in the single
// index traversal of tileMSR) and precomputes the Algorithm 5 thresholds
//
//	τ_z = (‖p^{z+1},U‖ − ‖p°,U‖) / 2     (MAX, Definition 6)
//	τ_z = (‖p^{z+1},U‖ − ‖p°,U‖) / 2m   (SUM, Theorem 7)
//
// When the data set holds fewer than z+1 points, no POI outside the buffer
// exists and τ_z is unbounded.
//
// The buffered competitors are the only candidates such a run ever
// verifies, so they take their memo slots here, in buffer order:
// candBuf[z-1] is p^{z+1}, and Algorithm 5's P*₁..z − {p°} is a prefix of
// it.
func (t *tilePlanning) initBuffer(b int, top []gnn.Result) {
	t.buffering = true
	t.stats.IndexAccesses++
	t.candBuf = t.candBuf[:0]
	for _, r := range top[1:] {
		t.candBuf = append(t.candBuf, t.memo.addSlot(r.Item.P))
	}

	denom := 2.0
	if t.pl.opts.Aggregate == gnn.Sum {
		denom = 2 * float64(len(t.users))
	}
	t.thresholds = t.thresholds[:0]
	for z := 1; z <= b; z++ {
		if z < len(top) {
			t.thresholds = append(t.thresholds, (top[z].Dist-t.poAgg)/denom)
		} else {
			t.thresholds = append(t.thresholds, math.Inf(1))
		}
	}
}

// addTile accepts tile s into user i's region.
func (t *tilePlanning) addTile(i int, s geom.Rect) {
	t.insertTile(i, s, nil)
	t.stats.TilesAccepted++
}

// insertTile appends tile s to user i's region and folds it into
// everything derived from the region: the running extent and ‖p°,·‖max
// aggregates, the per-tile ‖p°,·‖max record and the user's filled memo
// cells. Accepted tiles and the retained tiles seeding a partial regrow
// both enter through here, so the derived state always equals a rescan of
// the region. dps is noteTile's: the ‖c,s‖min of slots 0…len(dps)−1 when
// the caller has just computed them for this very tile, nil otherwise.
func (t *tilePlanning) insertTile(i int, s geom.Rect, dps []float64) {
	t.regions[i].Tiles = append(t.regions[i].Tiles, s)
	if v := s.MaxDist(t.users[i]); v > t.ext[i] {
		t.ext[i] = v
	}
	do := s.MaxDist(t.po)
	if do > t.doMax[i] {
		t.doMax[i] = do
	}
	t.tileDo[i] = append(t.tileDo[i], do)
	t.memo.noteTile(i, s, do, dps)
}

// divideVerify is Algorithm 2 (or Algorithm 5 when buffering is enabled):
// verify tile s for user i against every candidate POI; on failure quarter
// the tile and recurse down to split level 0.
func (t *tilePlanning) divideVerify(i int, s geom.Rect, level int) bool {
	if t.buffering {
		return t.bufferDivideVerify(i, s, level)
	}
	cands := t.collectCandidates(i, s)
	if t.verifyAgainst(i, s, cands) {
		t.addTile(i, s)
		return true
	}
	return t.splitAndRecurse(i, s, level)
}

// bufferCandidates is lines 1–5 of Algorithm 5 for a tile of the member
// under extension whose ‖u_i,·‖max is own: the candidates the tile must be
// verified against, or false when no buffer slot covers it.
func (t *tilePlanning) bufferCandidates(own float64) ([]int32, bool) {
	// dist ← max{‖ui,s‖max, max_j ‖uj,Rj‖max} (line 1).
	dist := own
	for _, v := range t.ext {
		if v > dist {
			dist = v
		}
	}
	// Smallest slot z (1-based) with dist ≤ τ_z, by binary search (line 2).
	idx := sort.SearchFloat64s(t.thresholds, dist)
	if idx == len(t.thresholds) {
		return nil, false
	}
	// P*₁..z − {p°} = candBuf[:idx] (line 5). idx==0 means even the
	// circle-radius threshold covers dist, so no competitor is reachable
	// and the tile is trivially safe.
	return t.candBuf[:min(idx, len(t.candBuf))], true
}

// bufferDivideVerify is Algorithm 5 (Buffer-Divide-Verify).
func (t *tilePlanning) bufferDivideVerify(i int, s geom.Rect, level int) bool {
	cands, ok := t.bufferCandidates(s.MaxDist(t.users[i]))
	if !ok {
		// No slot: the tile violates the Theorem 4/7 condition (lines 3–4).
		t.stats.TilesRejected++
		return false
	}
	if level > 0 && t.deadSubtree(i, s, level) {
		t.stats.TilesRejected++
		return false
	}
	t.stats.CandidatesChecked += len(cands)
	if t.verifyAgainst(i, s, cands) {
		// cands is the slot prefix 0…len(cands)−1, so the distances the
		// verification just took are addressed by slot, as noteTile
		// wants them (none after a SUM or IT-Verify pass).
		t.insertTile(i, s, t.dps)
		t.stats.TilesAccepted++
		return true
	}
	return t.splitAndRecurse(i, s, level)
}

// deadSubtreeSlack widens deadSubtree's bounds, relative to their own
// magnitude (some 450 ulps). The bounds are distances to leaves whose
// coordinates are exactly the ones Quadrants will produce, so all that is
// left to absorb is math.Hypot not being monotone in its last ulp.
const deadSubtreeSlack = 1e-13

// deadSubtree reports whether Buffer-Divide-Verify of tile s for member i,
// entered with level ≥ 1 splits to go, is certain to reject s and every
// sub-tile it would quarter s into, down to level 0 — in which case the
// caller rejects the subtree unvisited. Most attempts would be made inside
// subtrees that end up rejected whole, nearly always by the candidate that
// rejected the member's previous tile (see tilePlanning); so the test
// tries that one witness c, in O(m), and answers "not dead" whenever it
// cannot prove otherwise. It is a filter in front of the recursion, not
// a decision of its own: MAX with GT-Verify only, and only under buffering,
// where candidates are a slot prefix.
//
// Every descendant s′ (s included) contains one of the 4^level leaves, so
// with dp(·) = ‖c,·‖min, do(·) = ‖p°,·‖max:
//
//   - dp(s′) ≤ dp(leaf) ≤ D⁺, the dp of the corner leaf farthest from c on
//     both axes (per axis the gap to a leaf is convex in its position, so
//     it peaks at an end);
//   - do(s′) ≥ do(leaf) ≥ D⁻, the do of the leaf nearest p° on both axes;
//   - ‖u_i,s′‖max ≥ that of the leaf nearest u_i, so Algorithm 5 verifies
//     s′ against at least the candidates it would give that leaf; c must
//     be one of them (a descendant with no slot at all is rejected
//     anyway).
//
// verifyMax sees a tile only through (dp, do) and rejects monotonically —
// more readily for a smaller dp or a larger do — so if it rejects
// (D⁺, D⁻) against c it rejects every descendant: either the descendant's
// own test do > max(dp, floor_i)+eps fires, or some other member's
// attacker tile beats every group through it. Nothing is accepted on the
// way, so ext and the memo cells keep their entry values for the whole
// recursion, and by induction from the leaves up every node returns
// false. A member with an empty region has lo = +Inf, g = −Inf: verifyMax
// accepts and the vacuous accepts of a partial regrow are preserved.
func (t *tilePlanning) deadSubtree(i int, s geom.Rect, level int) bool {
	if t.pl.opts.Aggregate != gnn.Max || !t.pl.opts.GroupVerify {
		return false
	}
	c := t.witness[i]
	own := leafToward(s, level, t.users[i]).MaxDist(t.users[i])
	if cands, _ := t.bufferCandidates(own * (1 - deadSubtreeSlack)); int(c) >= len(cands) {
		return false
	}
	p := t.memo.pts[c]
	dp := leafAwayFrom(s, level, p).MinDist(p) * (1 + deadSubtreeSlack)
	do := leafToward(s, level, t.po).MaxDist(t.po) * (1 - deadSubtreeSlack)
	return !t.memo.verifyMax(t.mins, t.regions, t.tileDo, i, dp, do, c)
}

// leafToward returns, of the 4^level tiles Divide-Verify quarters s into,
// the one nearest p on each axis — the leaf holding p when s does, else
// the one at the end of that axis facing p. It halves as Quadrants does,
// so the result is that leaf bit for bit.
func leafToward(s geom.Rect, level int, p geom.Point) geom.Rect {
	for ; level > 0; level-- {
		mid := s.Center()
		if p.X < mid.X {
			s.Max.X = mid.X
		} else {
			s.Min.X = mid.X
		}
		if p.Y < mid.Y {
			s.Max.Y = mid.Y
		} else {
			s.Min.Y = mid.Y
		}
	}
	return s
}

// leafAwayFrom returns the corner leaf of s farthest from p on each axis.
func leafAwayFrom(s geom.Rect, level int, p geom.Point) geom.Rect {
	mid := s.Center()
	away := geom.Pt(math.Inf(1), math.Inf(1))
	if p.X > mid.X {
		away.X = math.Inf(-1)
	}
	if p.Y > mid.Y {
		away.Y = math.Inf(-1)
	}
	return leafToward(s, level, away)
}

// splitAndRecurse implements lines 4–10 of Algorithm 2.
func (t *tilePlanning) splitAndRecurse(i int, s geom.Rect, level int) bool {
	if level <= 0 {
		t.stats.TilesRejected++
		return false
	}
	ok := false
	for _, sub := range s.Quadrants() {
		if t.divideVerify(i, sub, level-1) {
			ok = true
		}
	}
	if !ok {
		t.stats.TilesRejected++
	}
	return ok
}

// verifyAgainst runs Tile-Verify for every candidate and reports whether
// the tile is safe with respect to all of them. SUM and group-verified
// MAX decide from the memo in O(m) per candidate; the IT-Verify ablation
// (GroupVerify off) enumerates tile groups over the regions themselves.
func (t *tilePlanning) verifyAgainst(i int, s geom.Rect, cands []int32) bool {
	t.dps = t.dps[:0]
	if len(cands) == 0 {
		return true
	}
	if t.pl.opts.Aggregate == gnn.Sum {
		for _, c := range cands {
			t.stats.TileVerifies++
			if !t.memo.verifySum(t.regions, i, s, c) {
				return false
			}
		}
		return true
	}
	m := len(t.users)
	if t.pl.opts.GroupVerify {
		// On acceptance t.dps holds ‖c,s‖min for every c of cands, in
		// order, for insertTile to hand to the memo.
		do := s.MaxDist(t.po)
		for _, c := range cands {
			t.stats.TileVerifies++
			dp := s.MinDist(t.memo.pts[c])
			t.dps = append(t.dps, dp)
			if !t.memo.verifyMax(t.mins, t.regions, t.tileDo, i, dp, do, c) {
				t.witness[i] = c
				return false
			}
		}
		return true
	}
	t.ts.users = grown(t.ts.users, m)
	ts := tileSets{users: t.ts.users}
	t.oneTile[0] = s
	for j := range ts.users {
		if j == i {
			ts.users[j] = t.oneTile[:1]
		} else {
			ts.users[j] = t.regions[j].Tiles
		}
	}
	t.itIdx = grown(t.itIdx, m)
	for _, c := range cands {
		t.stats.TileVerifies++
		if !itVerifyMaxInto(t.itIdx, ts, t.po, t.memo.pts[c]) {
			return false
		}
	}
	return true
}

// maxPruneQuery implements the Theorem 3 candidate retrieval as an
// allocation-free rtree.PruneQuery over the planning state: keep a
// subtree only if its MBR can hold a point within bounds[j] of every
// user j.
type maxPruneQuery struct{ t *tilePlanning }

func (q *maxPruneQuery) Keep(r geom.Rect) bool {
	t := q.t
	for j, u := range t.users {
		if r.MinDist(u) > t.bounds[j] {
			return false
		}
	}
	return true
}

func (q *maxPruneQuery) VisitItem(it rtree.Item) bool {
	t := q.t
	if it.ID != t.poID {
		t.candBuf = append(t.candBuf, t.memo.slotFor(it.ID, it.P))
	}
	return true
}

// sumPruneQuery implements the Theorem 6 pruning rule: keep a subtree
// only if the summed minimum user distances stay within the bound.
type sumPruneQuery struct {
	t     *tilePlanning
	bound float64
}

func (q *sumPruneQuery) Keep(r geom.Rect) bool {
	sum := 0.0
	for _, u := range q.t.users {
		sum += r.MinDist(u)
	}
	return sum <= q.bound
}

func (q *sumPruneQuery) VisitItem(it rtree.Item) bool {
	t := q.t
	if it.ID != t.poID {
		t.candBuf = append(t.candBuf, t.memo.slotFor(it.ID, it.P))
	}
	return true
}

// collectCandidates retrieves the POIs that could displace p° given the
// hypothetical region group with s added to user i, traversing the R-tree
// with the Theorem 3 (MAX) or Theorem 6 (SUM) pruning rule. With pruning
// disabled it returns every non-result POI.
func (t *tilePlanning) collectCandidates(i int, s geom.Rect) []int32 {
	t.stats.IndexAccesses++
	t.candBuf = t.candBuf[:0]

	if !t.pl.opts.IndexPruning {
		for id, p := range t.snap.points {
			if id != t.poID && !t.snap.Deleted(id) {
				t.candBuf = append(t.candBuf, t.memo.slotFor(id, p))
			}
		}
		t.stats.CandidatesChecked += len(t.candBuf)
		return t.candBuf
	}

	// ext(j) is the extent r↑_j of the hypothetical region group: the
	// running extent, widened by s for the user under extension.
	ext := func(j int) float64 {
		e := t.ext[j]
		if j == i {
			if v := s.MaxDist(t.users[j]); v > e {
				e = v
			}
		}
		return e
	}

	if t.pl.opts.Aggregate == gnn.Max {
		// ‖p°,R‖⊤ over the hypothetical group.
		dmax := s.MaxDist(t.po)
		for j, v := range t.doMax {
			if j != i && v > dmax {
				dmax = v
			}
		}
		t.bounds = t.bounds[:0]
		for j := range t.users {
			t.bounds = append(t.bounds, dmax+ext(j))
		}
		t.snap.tree.PrunedSearchInto(t.rts, &t.maxQ)
	} else {
		// Theorem 6: prune p when Σ‖p,uj‖ > ‖p°,U‖sum + 2Σ r↑_j.
		bound := t.poAgg
		for j := range t.users {
			bound += 2 * ext(j)
		}
		t.sumQ.bound = bound
		t.snap.tree.PrunedSearchInto(t.rts, &t.sumQ)
	}
	t.stats.CandidatesChecked += len(t.candBuf)
	return t.candBuf
}
