package core

import (
	"math"
	"math/rand"
	"testing"

	"mpn/internal/geom"
	"mpn/internal/gnn"
	"mpn/internal/rtree"
)

func TestDominantDistances(t *testing.T) {
	regions := []SafeRegion{
		CircleRegion(geom.Pt(0, 0), 1),
		TileRegion(geom.RectAround(geom.Pt(5, 0), 2)),
	}
	p := geom.Pt(0, 0)
	// ‖p,R1‖max = 1 (circle), ‖p,R2‖max = dist to far corner (6,1) = √37.
	wantMax := math.Hypot(6, 1)
	if got := DominantMaxDist(regions, p); math.Abs(got-wantMax) > 1e-12 {
		t.Fatalf("DominantMaxDist=%v want %v", got, wantMax)
	}
	// ‖p,R1‖min = 0 (p is the center), ‖p,R2‖min = 4.
	if got := DominantMinDist(regions, p); got != 4 {
		t.Fatalf("DominantMinDist=%v want 4", got)
	}
}

func TestVerifyAggDispatch(t *testing.T) {
	regions := []SafeRegion{CircleRegion(geom.Pt(0, 0), 0.1)}
	po := geom.Pt(0.2, 0)
	far := geom.Pt(10, 0)
	if !VerifyAgg(gnn.Max, regions, po, far) {
		t.Fatal("max dispatch")
	}
	if !VerifyAgg(gnn.Sum, regions, po, far) {
		t.Fatal("sum dispatch")
	}
	near := geom.Pt(0.2001, 0.0001)
	// Both aggregates should reject a competitor essentially on top of p°
	// with a region that can move past the bisector.
	if VerifyAgg(gnn.Max, regions, po, near) {
		t.Fatal("max accepted an unsafe competitor")
	}
}

// VerifySum on circle regions uses the conservative 2R relaxation; it
// must never accept something the exact tile-based evaluation rejects on
// an inscribed square (which is a subset, so acceptance of the circle
// implies safety of the square).
func TestVerifySumCircleConservative(t *testing.T) {
	rng := rand.New(rand.NewSource(81))
	accepted := 0
	for trial := 0; trial < 2000; trial++ {
		c := geom.Circle{
			C: geom.Pt(rng.Float64(), rng.Float64()),
			R: rng.Float64()*0.1 + 0.001,
		}
		regions := []SafeRegion{
			{Kind: KindCircle, Circle: c},
			CircleRegion(geom.Pt(rng.Float64(), rng.Float64()), rng.Float64()*0.1),
		}
		po := geom.Pt(rng.Float64(), rng.Float64())
		p := geom.Pt(rng.Float64(), rng.Float64())
		if !VerifySum(regions, po, p) {
			continue
		}
		accepted++
		// Sample instances inside the circles.
		for s := 0; s < 30; s++ {
			inst := make([]geom.Point, len(regions))
			for i, r := range regions {
				inst[i] = samplePoint(r, rng)
			}
			if gnn.Sum.PointDist(po, inst) > gnn.Sum.PointDist(p, inst)+1e-9 {
				t.Fatal("VerifySum circle path accepted an unsafe configuration")
			}
		}
	}
	if accepted == 0 {
		t.Fatal("vacuous")
	}
}

// Lemma 1's proof structure: the dominant distances bracket the true
// dominant distance for any instance.
func TestDominantDistanceBracketing(t *testing.T) {
	rng := rand.New(rand.NewSource(82))
	for trial := 0; trial < 500; trial++ {
		m := 2 + rng.Intn(3)
		regions := make([]SafeRegion, m)
		for i := range regions {
			regions[i] = TileRegion(geom.RectAround(
				geom.Pt(rng.Float64(), rng.Float64()), rng.Float64()*0.2+0.01))
		}
		p := geom.Pt(rng.Float64()*2-0.5, rng.Float64()*2-0.5)
		lo := DominantMinDist(regions, p)
		hi := DominantMaxDist(regions, p)
		for s := 0; s < 20; s++ {
			inst := make([]geom.Point, m)
			for i := range inst {
				inst[i] = samplePoint(regions[i], rng)
			}
			d := gnn.Max.PointDist(p, inst)
			if d < lo-1e-9 || d > hi+1e-9 {
				t.Fatalf("dominant distance %v outside [%v, %v]", d, lo, hi)
			}
		}
	}
}

// The Fig. 6b scenario: a region group that fails the plain Lemma 1 test
// but passes after subdividing the offending region — the motivation for
// Divide-Verify.
func TestSubdivisionRescuesVerification(t *testing.T) {
	// Construct: u2's region R2 straddles the bisector between p° and p1
	// so that ‖p°,R2‖max > ‖p1,R2‖min, but each quadrant of R2 verifies
	// together with the others.
	po := geom.Pt(0, 0)
	p1 := geom.Pt(4, 0)
	r1 := TileRegion(geom.RectAround(geom.Pt(0.2, 1.2), 0.2))
	r3 := TileRegion(geom.RectAround(geom.Pt(-0.2, -1.2), 0.2))
	big := geom.RectAround(geom.Pt(1.0, 0), 1.6) // wide tile near the bisector
	r2 := TileRegion(big)

	if Verify([]SafeRegion{r1, r2, r3}, po, p1) {
		t.Skip("construction did not fail the coarse test; geometry drifted")
	}
	// Quadrant-level verification via the exact group check: every
	// quadrant that individually passes may be kept; the union of kept
	// quadrants should be non-empty (the left half of the tile).
	kept := 0
	for _, q := range big.Quadrants() {
		if ExactVerify([]SafeRegion{r1, r2, r3}, 1, q, po, p1) {
			kept++
		}
	}
	if kept == 0 {
		t.Fatal("no quadrant passed — Divide-Verify would lose the whole tile")
	}
	if kept == 4 {
		t.Fatal("all quadrants passed — scenario failed to exercise subdivision")
	}
}

// ExactVerify must agree with brute-force instance sampling in the
// rejecting direction too: when it rejects, some instance must actually
// prefer p (completeness up to sampling).
func TestExactVerifyCompleteness(t *testing.T) {
	rng := rand.New(rand.NewSource(83))
	checkedRejections := 0
	for trial := 0; trial < 800 && checkedRejections < 150; trial++ {
		regions := randomTileRegions(rng, 2)
		i := rng.Intn(2)
		s := geom.RectAround(geom.Pt(rng.Float64(), rng.Float64()), 0.05)
		po := geom.Pt(rng.Float64(), rng.Float64())
		p := geom.Pt(rng.Float64(), rng.Float64())
		if ExactVerify(regions, i, s, po, p) {
			continue
		}
		// Rejected: find a witness instance by corner enumeration of the
		// participating tiles (the extreme distances are attained at
		// corners or closest points, so grid-sample densely instead).
		witness := false
		for a := 0; a < 300 && !witness; a++ {
			inst := make([]geom.Point, 2)
			for j := range inst {
				var tiles []geom.Rect
				if j == i {
					tiles = []geom.Rect{s}
				} else {
					tiles = regions[j].Tiles
				}
				tile := tiles[rng.Intn(len(tiles))]
				inst[j] = geom.Pt(
					tile.Min.X+rng.Float64()*tile.Width(),
					tile.Min.Y+rng.Float64()*tile.Height(),
				)
			}
			if gnn.Max.PointDist(po, inst) > gnn.Max.PointDist(p, inst)+1e-9 {
				witness = true
			}
		}
		if witness {
			checkedRejections++
		}
		// Absence of a sampled witness is possible for boundary-tight
		// rejections; tolerate them but require most rejections to be
		// witnessed.
	}
	if checkedRejections < 50 {
		t.Fatalf("only %d witnessed rejections — exact verifier may be too conservative", checkedRejections)
	}
}

// memoFixture is a tilePlanning wired by hand for the memo tests: m
// members with empty regions, optimum po, and one memo slot per
// candidate. No index is attached — the tests hand verifyAgainst their
// own candidates instead of collecting them.
func memoFixture(t *testing.T, agg gnn.Aggregate, users []geom.Point, po geom.Point, cands []geom.Point) (*tilePlanning, []int32) {
	t.Helper()
	opts := DefaultOptions()
	opts.Aggregate = agg
	pl := mustPlanner(t, []geom.Point{po}, opts)
	tp := &NewWorkspace().tp
	tp.reset(pl, nil, nil, users, gnn.Result{Item: rtree.Item{P: po}}, new(Stats))
	slots := make([]int32, len(cands))
	for c, p := range cands {
		slots[c] = tp.memo.addSlot(p)
	}
	return tp, slots
}

// memoTileSets is the hypothetical group ⟨T_1,…,{s}_i,…,T_m⟩ the oracles
// decide on.
func memoTileSets(tp *tilePlanning, i int, s geom.Rect) tileSets {
	ts := tileSets{users: make([][]geom.Rect, len(tp.regions))}
	for j := range ts.users {
		ts.users[j] = tp.regions[j].Tiles
	}
	ts.users[i] = []geom.Rect{s}
	return ts
}

// memoRandomTile draws a tile near the unit square: mostly ordinary
// squares, sometimes a zero-area point tile, sometimes a duplicate of a
// tile already drawn.
func memoRandomTile(rng *rand.Rand, drawn []geom.Rect) geom.Rect {
	switch r := rng.Intn(10); {
	case r == 0 && len(drawn) > 0:
		return drawn[rng.Intn(len(drawn))]
	case r == 1:
		p := geom.Pt(rng.Float64(), rng.Float64())
		return geom.Rect{Min: p, Max: p}
	default:
		return geom.RectAround(geom.Pt(rng.Float64(), rng.Float64()), rng.Float64()*0.2+0.005)
	}
}

// memoEdgeCandidate places a candidate p so that do − ‖p,s‖min lands
// within ±1e-12 of the verifiers' eps: due east of tile s's right edge at
// mid-height, where ‖p,s‖min is exactly the x offset. With do = ‖p°,s‖max
// the edge is the tile's own do > dp+eps test; with do taken from a tile
// of ANOTHER member it is that attacker's do > floor+eps test, s being
// the tile that sets the floor.
func memoEdgeCandidate(rng *rand.Rand, s geom.Rect, do float64) geom.Point {
	jitter := (rng.Float64()*2 - 1) * 1e-12
	return geom.Pt(s.Max.X+do-verifyEps+jitter, (s.Min.Y+s.Max.Y)/2)
}

// itVerifyFeasible reports whether the tile sets form few enough groups
// for the exponential IT-Verify oracle to enumerate.
func itVerifyFeasible(ts tileSets) bool {
	n := 1
	for _, tiles := range ts.users {
		n *= len(tiles)
		if n > 2048 {
			return false
		}
	}
	return true
}

// memoIns is one step of a region script: tile s joins member k's region.
type memoIns struct {
	k int
	s geom.Rect
}

// memoRandomScript draws one trial of the memo tests: m = 1…5 members, the
// optimum, and 0–40 tiles per member (one member sometimes left empty,
// every seventh trial small enough for IT-Verify) as (member, tile)
// insertions in a shuffled order, so replaying the script interleaves
// members as round-robin growth does. drawn lists the tiles.
func memoRandomScript(rng *rand.Rand, trial int) (users []geom.Point, po geom.Point, script []memoIns, drawn []geom.Rect) {
	m := 1 + trial%5
	po = geom.Pt(rng.Float64(), rng.Float64())
	users = randomPoints(m, rng)
	empty := -1
	if m > 1 && trial%3 == 0 {
		empty = rng.Intn(m)
	}
	for k := 0; k < m; k++ {
		if k == empty {
			continue
		}
		n := rng.Intn(41)
		if trial%7 == 0 {
			n = 1 + rng.Intn(4) // small sets keep IT-Verify enumerable
		}
		for ; n > 0; n-- {
			s := memoRandomTile(rng, drawn)
			drawn = append(drawn, s)
			script = append(script, memoIns{k, s})
		}
	}
	rng.Shuffle(len(script), func(a, b int) { script[a], script[b] = script[b], script[a] })
	return users, po, script, drawn
}

// TestMemoMatchesVerifyOracles is the differential fence of the
// verification memo: on seeded random tile sets — m = 1…5, 0–40 tiles per
// member with one member sometimes empty, duplicated and zero-area tiles,
// and candidates sitting on both eps edges — the memoized MAX decision must
// equal gtVerifyMax and itVerifyMax, and the memoized SUM decision the
// rescanned Σ F_j, in both fill orders:
//
//   - lazy: every tile is inserted first, so each cell is filled by one
//     scan of the finished region;
//   - early: every cell and cached floor is filled while the regions are
//     still empty, then maintained tile by tile through addTile, with the
//     decisions re-checked after every insertion.
func TestMemoMatchesVerifyOracles(t *testing.T) {
	rng := rand.New(rand.NewSource(151))
	var accepts, rejects, itChecked, edgeRejects int
	for trial := 0; trial < 120; trial++ {
		users, po, script, drawn := memoRandomScript(rng, trial)
		m := len(users)

		// Candidates: random ones plus eps-edge ones aimed at drawn tiles
		// and at the probe tiles below.
		probes := make([]geom.Rect, 3)
		for i := range probes {
			probes[i] = memoRandomTile(rng, drawn)
		}
		var cands []geom.Point
		for c := 0; c < 6; c++ {
			cands = append(cands, geom.Pt(rng.Float64()*1.4-0.2, rng.Float64()*1.4-0.2))
		}
		for c := 0; c < 8; c++ {
			target := probes[rng.Intn(len(probes))]
			if len(drawn) > 0 && c%2 == 0 {
				target = drawn[rng.Intn(len(drawn))]
			}
			do := target.MaxDist(po)
			if len(drawn) > 0 && c >= 4 {
				// Floor edge: a probe tile sets the floor an attacker
				// tile's do is compared against.
				target = probes[rng.Intn(len(probes))]
				do = drawn[rng.Intn(len(drawn))].MaxDist(po)
			}
			cands = append(cands, memoEdgeCandidate(rng, target, do))
		}

		check := func(tp *tilePlanning, mc []int32, agg gnn.Aggregate, mode string) {
			// SUM oracle: F_j(c) rescanned from the regions as they stand.
			var rescanF [][]float64
			if agg == gnn.Sum {
				rescanF = make([][]float64, m)
				for j := range rescanF {
					for _, p := range cands {
						rescanF[j] = append(rescanF[j], regionFocalDiffMin(tp.regions[j], p, po))
					}
				}
			}
			for i := 0; i < m; i++ {
				for _, s := range probes {
					ts := memoTileSets(tp, i, s)
					for c, p := range cands {
						got := tp.verifyAgainst(i, s, mc[c:c+1])
						var want bool
						if agg == gnn.Sum {
							total := geom.FocalDiffMin(s, p, po)
							for j := range rescanF {
								if j != i {
									total += rescanF[j][c]
								}
							}
							want = total >= 0
						} else {
							want = gtVerifyMax(ts, po, p)
							if mode != "early/each" && itVerifyFeasible(ts) {
								itChecked++
								if it := itVerifyMax(ts, po, p); it != want {
									t.Fatalf("trial %d: oracles disagree: gt=%v it=%v", trial, want, it)
								}
							}
						}
						if got != want {
							t.Fatalf("trial %d %s %v: member %d tile %v candidate %d: memo=%v oracle=%v",
								trial, mode, agg, i, s, c, got, want)
						}
						if want {
							accepts++
						} else {
							rejects++
							if c >= 6 {
								edgeRejects++
							}
						}
					}
				}
			}
		}

		for _, agg := range []gnn.Aggregate{gnn.Max, gnn.Sum} {
			// Lazy: insert everything, then decide.
			tp, mc := memoFixture(t, agg, users, po, cands)
			for _, in := range script {
				tp.addTile(in.k, in.s)
			}
			check(tp, mc, agg, "lazy")

			// Early: fill every cell and cached floor over the empty
			// regions, then keep them current through addTile. MAX decides
			// again after every insertion, so no stale floor goes unread;
			// every eighth re-check also covers SUM (which caches no
			// floors) and IT-Verify, whose rescans dominate the cost.
			tp, mc = memoFixture(t, agg, users, po, cands)
			check(tp, mc, agg, "early/empty")
			for n, in := range script {
				tp.addTile(in.k, in.s)
				switch {
				case n%8 == 7:
					check(tp, mc, agg, "early/partial")
				case agg == gnn.Max:
					check(tp, mc, agg, "early/each")
				}
			}
			check(tp, mc, agg, "early/full")

			// The running aggregates equal the rescans they replaced.
			for j := range tp.regions {
				if tp.ext[j] != tp.regions[j].MaxExtent(users[j]) || tp.doMax[j] != tp.regions[j].MaxDist(po) {
					t.Fatalf("trial %d: member %d running aggregates (%v, %v) diverged from rescans (%v, %v)",
						trial, j, tp.ext[j], tp.doMax[j], tp.regions[j].MaxExtent(users[j]), tp.regions[j].MaxDist(po))
				}
			}
		}
	}
	if accepts == 0 || rejects == 0 || itChecked == 0 || edgeRejects == 0 {
		t.Fatalf("vacuous: accepts=%d rejects=%d itChecked=%d edgeRejects=%d", accepts, rejects, itChecked, edgeRejects)
	}
}
