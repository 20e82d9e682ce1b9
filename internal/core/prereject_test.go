package core

import (
	"math"
	"math/rand"
	"sort"
	"testing"

	"mpn/internal/geom"
	"mpn/internal/gnn"
	"mpn/internal/rtree"
)

// bufferedMemoFixture is memoFixture put under Algorithm 5 buffering by
// hand: the candidates are the buffer, in slot order, and thresholds are
// the τ_1 ≤ … ≤ τ_b that decide how long a prefix of them a tile meets.
func bufferedMemoFixture(t *testing.T, agg gnn.Aggregate, users []geom.Point, po geom.Point, cands []geom.Point, thresholds []float64) *tilePlanning {
	t.Helper()
	tp, slots := memoFixture(t, agg, users, po, cands)
	tp.buffering = true
	tp.candBuf = slots
	tp.thresholds = thresholds
	return tp
}

// randomThresholds draws b sorted thresholds on the scale of the unit
// square's distances, so tiles meet prefixes of every length, and
// sometimes ends them with the +Inf of a data set smaller than the buffer.
func randomThresholds(rng *rand.Rand, b int) []float64 {
	th := make([]float64, b)
	for z := range th {
		th[z] = rng.Float64()
	}
	sort.Float64s(th)
	if rng.Intn(3) == 0 {
		th[b-1] = math.Inf(1)
	}
	return th
}

// deadEdgeCandidate places a candidate so that deadSubtree's D⁺ for tile
// s at the given level — the distance to the corner leaf farthest from the
// candidate — lands within ±1e-12 of do − eps: out along a random ray from
// the tile's centre, along which D⁺ only grows.
func deadEdgeCandidate(rng *rand.Rand, s geom.Rect, level int, do float64) geom.Point {
	a := 2 * math.Pi * rng.Float64()
	mid := s.Center()
	at := func(r float64) geom.Point { return geom.Pt(mid.X+r*math.Cos(a), mid.Y+r*math.Sin(a)) }
	lo, hi := 0.0, do+2
	for n := 0; n < 100; n++ {
		r := (lo + hi) / 2
		if c := at(r); leafAwayFrom(s, level, c).MinDist(c) < do-verifyEps {
			lo = r
		} else {
			hi = r
		}
	}
	return at(hi + (rng.Float64()*2-1)*1e-12)
}

// assertMemoMatchesRescan requires everything tilePlanning derives from
// the regions to equal a rescan of them: each filled memo cell, the
// per-tile ‖p°,·‖max record, and filledTo covering every filled cell.
func assertMemoMatchesRescan(t *testing.T, tp *tilePlanning, when string) {
	t.Helper()
	vm := &tp.memo
	for k := range tp.regions {
		tiles := tp.regions[k].Tiles
		if len(tp.tileDo[k]) != len(tiles) {
			t.Fatalf("%s: member %d has %d tiles but %d recorded ‖p°,·‖max", when, k, len(tiles), len(tp.tileDo[k]))
		}
		for n, s := range tiles {
			if tp.tileDo[k][n] != s.MaxDist(tp.po) {
				t.Fatalf("%s: member %d tile %d: recorded ‖p°,·‖max %v, rescan %v", when, k, n, tp.tileDo[k][n], s.MaxDist(tp.po))
			}
		}
		for slot, p := range vm.pts {
			c := vm.cells[slot*vm.m+k]
			if !c.filled {
				continue
			}
			if int32(slot) >= vm.filledTo[k] {
				t.Fatalf("%s: member %d slot %d is filled beyond filledTo=%d", when, k, slot, vm.filledTo[k])
			}
			lo, g := math.Inf(1), math.Inf(-1)
			for _, s := range tiles {
				if vm.sum {
					lo = math.Min(lo, geom.FocalDiffMin(s, p, tp.po))
					continue
				}
				dp, do := s.MinDist(p), s.MaxDist(tp.po)
				lo = math.Min(lo, dp)
				if do > dp+verifyEps {
					g = math.Max(g, do)
				}
			}
			if c.lo != lo || c.g != g {
				t.Fatalf("%s: member %d slot %d: cell (lo=%v g=%v), rescan (lo=%v g=%v)", when, k, slot, c.lo, c.g, lo, g)
			}
		}
	}
}

// TestDeadSubtreeProvesEveryDescendantRejected is the proof obligation of
// the Divide-Verify pre-reject. Over the region scripts of
// TestMemoMatchesVerifyOracles — every m, regions from empty to full —
// with probe tiles at split levels 1–3, random buffer thresholds, every
// slot tried as the witness, and eps-edge candidates aimed at exactly the
// leaves the bounds are taken from (the four corner leaves and the leaf
// nearest p°): whenever deadSubtree answers "dead", every descendant of
// the tile down to level 0 must either have no buffer slot, or have the
// witness inside its Algorithm 5 prefix and be rejected against it by the
// stateless oracle gtVerifyMax.
func TestDeadSubtreeProvesEveryDescendantRejected(t *testing.T) {
	rng := rand.New(rand.NewSource(163))
	var dead, alive, descendants, noSlot, edgeDead, edgeAlive int
	for trial := 0; trial < 120; trial++ {
		users, po, script, drawn := memoRandomScript(rng, trial)
		m := len(users)

		type probe struct {
			s     geom.Rect
			level int
		}
		probes := make([]probe, 3)
		for n := range probes {
			probes[n] = probe{memoRandomTile(rng, drawn), 1 + rng.Intn(3)}
		}
		const nRandom = 6
		var cands []geom.Point
		for c := 0; c < nRandom; c++ {
			cands = append(cands, geom.Pt(rng.Float64()*1.4-0.2, rng.Float64()*1.4-0.2))
		}
		for c := 0; c < 12; c++ {
			pr := probes[rng.Intn(len(probes))]
			// The do an edge is measured against: the subtree's own D⁻,
			// or an attacker tile of another member.
			do := leafToward(pr.s, pr.level, po).MaxDist(po)
			if len(drawn) > 0 && c%2 == 1 {
				do = drawn[rng.Intn(len(drawn))].MaxDist(po)
			}
			switch c % 3 {
			case 0: // a descendant's own decision: the leaf nearest p° …
				cands = append(cands, memoEdgeCandidate(rng, leafToward(pr.s, pr.level, po), do))
			case 1: // … or a corner leaf
				corner := geom.Pt(math.Inf(2*rng.Intn(2)-1), math.Inf(2*rng.Intn(2)-1))
				cands = append(cands, memoEdgeCandidate(rng, leafToward(pr.s, pr.level, corner), do))
			default: // the pre-reject's decision: D⁺ = do − eps
				cands = append(cands, deadEdgeCandidate(rng, pr.s, pr.level, do))
			}
		}

		tp := bufferedMemoFixture(t, gnn.Max, users, po, cands, randomThresholds(rng, len(cands)))
		check := func() {
			for i := 0; i < m; i++ {
				for _, pr := range probes {
					for c := range cands {
						tp.witness[i] = int32(c)
						if !tp.deadSubtree(i, pr.s, pr.level) {
							alive++
							if c >= nRandom {
								edgeAlive++
							}
							continue
						}
						dead++
						if c >= nRandom {
							edgeDead++
						}
						var walk func(s geom.Rect, level int)
						walk = func(s geom.Rect, level int) {
							descendants++
							prefix, ok := tp.bufferCandidates(s.MaxDist(users[i]))
							switch {
							case !ok:
								noSlot++
							case c >= len(prefix):
								t.Fatalf("trial %d: member %d tile %v level %d declared dead by witness %d, but descendant %v meets only %d candidates",
									trial, i, pr.s, pr.level, c, s, len(prefix))
							case gtVerifyMax(memoTileSets(tp, i, s), po, cands[c]):
								t.Fatalf("trial %d: member %d tile %v level %d declared dead by witness %d, but the oracle accepts descendant %v",
									trial, i, pr.s, pr.level, c, s)
							}
							if level > 0 {
								for _, q := range s.Quadrants() {
									walk(q, level-1)
								}
							}
						}
						walk(pr.s, pr.level)
					}
				}
			}
		}
		check()
		for n, in := range script {
			tp.addTile(in.k, in.s)
			if n%16 == 15 {
				check()
			}
		}
		check()
		assertMemoMatchesRescan(t, tp, "after the script")
	}
	if dead < 5000 || alive < 5000 || edgeDead < 200 || edgeAlive < 200 || noSlot == 0 {
		t.Fatalf("vacuous: dead=%d alive=%d edgeDead=%d edgeAlive=%d descendants=%d noSlot=%d",
			dead, alive, edgeDead, edgeAlive, descendants, noSlot)
	}
}

// TestDeadSubtreeKeepsItsMargin pins the slack: a subtree whose bounds
// clear the rejection test by less than deadSubtreeSlack allows — where a
// last-ulp wobble of math.Hypot between a leaf and the descendant holding
// it could flip the comparison — must be answered "not dead", and one that
// clears it comfortably "dead".
func TestDeadSubtreeKeepsItsMargin(t *testing.T) {
	users := []geom.Point{geom.Pt(0.5, 0.5)}
	po := geom.Pt(0.1, 0.52)
	s := geom.RectAround(users[0], 0.2)
	const level = 2
	dMinus := leafToward(s, level, po).MaxDist(po)
	// The candidate sits due west of the tile, level with po: its D⁺ is
	// the distance to the far (east) column of leaves, which moving the
	// candidate east shrinks continuously.
	gap := func(x float64) float64 {
		c := geom.Pt(x, po.Y)
		return dMinus - leafAwayFrom(s, level, c).MinDist(c) - verifyEps
	}
	// Bisect for the candidate where the slack-free test is exactly tied.
	lo, hi := -1.0, s.Min.X
	if gap(lo) > 0 || gap(hi) < 0 {
		t.Fatalf("construction drifted: gap(%v)=%v gap(%v)=%v", lo, gap(lo), hi, gap(hi))
	}
	for n := 0; n < 200; n++ {
		if mid := (lo + hi) / 2; gap(mid) > 0 {
			hi = mid
		} else {
			lo = mid
		}
	}
	for _, tc := range []struct {
		offset float64 // east of the tie: the slack-free margin it leaves
		dead   bool
	}{{1e-14, false}, {1e-11, true}} {
		c := geom.Pt(hi+tc.offset, po.Y)
		if g := gap(c.X); g <= 0 {
			t.Fatalf("offset %g: the slack-free test does not clear (gap %g); nothing is pinned", tc.offset, g)
		}
		tp := bufferedMemoFixture(t, gnn.Max, users, po, []geom.Point{c}, []float64{0, math.Inf(1)})
		if got := tp.deadSubtree(0, s, level); got != tc.dead {
			t.Errorf("margin %g over the tie: deadSubtree=%v, want %v", tc.offset, got, tc.dead)
		}
	}
}

// TestMemoReuseNeverCrossesTiles drives a buffered MAX planning state
// through random interleavings of everything that inserts a tile — a
// verified accept through bufferDivideVerify (which hands the memo the
// distances its verification took), a trivially accepted tile that meets
// no candidate, a seed or retained tile inserted unverified right after
// some OTHER tile's verification — and requires the memo, the per-tile
// ‖p°,·‖max record and filledTo to equal a rescan after every step. A
// stashed distance leaking from one tile to another, or a fold skipping a
// filled cell, shows as a cell that differs from its rescan.
func TestMemoReuseNeverCrossesTiles(t *testing.T) {
	rng := rand.New(rand.NewSource(167))
	var verified, trivial, unverified, shortPrefix int
	for trial := 0; trial < 60; trial++ {
		m := 1 + trial%5
		users := randomPoints(m, rng)
		po := geom.Pt(rng.Float64(), rng.Float64())
		cands := make([]geom.Point, 12)
		for c := range cands {
			cands[c] = geom.Pt(rng.Float64()*3-1, rng.Float64()*3-1)
		}
		agg := gnn.Max
		if trial%6 == 5 {
			agg = gnn.Sum // the hand-over must be a no-op here
		}
		tp := bufferedMemoFixture(t, agg, users, po, cands, nil)
		var drawn []geom.Rect
		for step := 0; step < 60; step++ {
			i := rng.Intn(m)
			s := memoRandomTile(rng, drawn)
			drawn = append(drawn, s)
			switch rng.Intn(4) {
			case 0:
				// Another tile is verified (leaving its distances behind),
				// then s enters unverified, as a seed or retained tile does.
				tp.verifyAgainst(rng.Intn(m), memoRandomTile(rng, drawn), tp.candBuf[:1+rng.Intn(len(cands))])
				if rng.Intn(2) == 0 {
					tp.addTile(i, s)
				} else {
					tp.insertTile(i, s, nil)
				}
				unverified++
			case 1:
				// No candidate reachable: accepted without a verification,
				// right after another tile's.
				tp.verifyAgainst(rng.Intn(m), memoRandomTile(rng, drawn), tp.candBuf)
				tp.thresholds = make([]float64, len(cands))
				for z := range tp.thresholds {
					tp.thresholds[z] = math.Inf(1)
				}
				if !tp.bufferDivideVerify(i, s, 2) {
					t.Fatalf("trial %d step %d: a tile that meets no candidate was rejected", trial, step)
				}
				trivial++
			default:
				tp.thresholds = randomThresholds(rng, len(cands))
				if tp.bufferDivideVerify(i, s, rng.Intn(3)) {
					verified++
					if int32(len(tp.dps)) < tp.memo.filledTo[i] {
						shortPrefix++ // cells beyond the handed-over prefix
					}
				}
			}
			assertMemoMatchesRescan(t, tp, "after a step")
			if tp.ext[i] != tp.regions[i].MaxExtent(users[i]) {
				t.Fatalf("trial %d step %d: running extent diverged", trial, step)
			}
		}
	}
	if verified < 200 || trivial < 200 || unverified < 200 || shortPrefix == 0 {
		t.Fatalf("vacuous: verified=%d trivial=%d unverified=%d shortPrefix=%d", verified, trivial, unverified, shortPrefix)
	}
}

// TestResetForgetsPerPlanState: a plan's work counters must not depend on
// what its workspace planned before, so reset has to return the pre-reject
// witnesses to slot 0 and empty the per-tile record and filled-slot bounds
// — state whose staleness changes only how much work a plan does, which
// the shared-versus-fresh workspace tests see only when a stale witness
// happens to be a worse one.
func TestResetForgetsPerPlanState(t *testing.T) {
	users := randomPoints(4, rand.New(rand.NewSource(173)))
	po := geom.Pt(0.5, 0.5)
	// Slot 0 is too far away to reject anything; slot 1 sits on p°.
	tp, slots := memoFixture(t, gnn.Max, users, po, []geom.Point{geom.Pt(10, 10), geom.Pt(0.5001, 0.5)})
	for i := range users {
		tp.addTile(i, geom.RectAround(users[i], 0.1))
	}
	for i := range users {
		tp.verifyAgainst(i, geom.RectAround(po, 0.3), slots)
	}
	if tp.witness[0] != 1 {
		t.Fatalf("vacuous: the verifications left witnesses %v, want slot 1", tp.witness)
	}
	tp.reset(tp.pl, nil, nil, users[:3], gnn.Result{Item: rtree.Item{P: po}}, new(Stats))
	for i := range users[:3] {
		if tp.witness[i] != 0 || tp.memo.filledTo[i] != 0 || len(tp.tileDo[i]) != 0 {
			t.Fatalf("member %d after reset: witness=%d filledTo=%d tileDo=%v", i, tp.witness[i], tp.memo.filledTo[i], tp.tileDo[i])
		}
	}
}
