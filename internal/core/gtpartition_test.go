package core

import (
	"math/rand"
	"testing"
	"testing/quick"

	"mpn/internal/geom"
	"mpn/internal/gnn"
)

// randomTileRegions builds a random configuration for the verifier
// comparisons.
func randomTileRegions(rng *rand.Rand, m int) []SafeRegion {
	regions := make([]SafeRegion, m)
	for i := range regions {
		cnt := 1 + rng.Intn(4)
		tiles := make([]geom.Rect, 0, cnt)
		for k := 0; k < cnt; k++ {
			tiles = append(tiles, geom.RectAround(
				geom.Pt(rng.Float64(), rng.Float64()), rng.Float64()*0.15+0.01))
		}
		regions[i] = TileRegion(tiles...)
	}
	return regions
}

// The partition verifier must be SOUND: whenever it accepts, the exact
// enumeration (via gtVerifyMax ≡ itVerifyMax) must also accept.
func TestPartitionVerifySound(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	accepts := 0
	for trial := 0; trial < 4000; trial++ {
		m := 1 + rng.Intn(3)
		regions := randomTileRegions(rng, m)
		i := rng.Intn(m)
		s := geom.RectAround(geom.Pt(rng.Float64(), rng.Float64()), rng.Float64()*0.15+0.01)
		po := geom.Pt(rng.Float64(), rng.Float64())
		p := geom.Pt(rng.Float64(), rng.Float64())
		if PartitionVerify(regions, i, s, po, p) {
			accepts++
			if !ExactVerify(regions, i, s, po, p) {
				t.Fatalf("partition verifier accepted an invalid tile (trial %d)", trial)
			}
		}
	}
	if accepts == 0 {
		t.Fatal("partition verifier never accepted — vacuous test")
	}
}

// When the plain Lemma 1 union test passes (line 1), the two verifiers
// agree by construction; measure how often the partition refinement
// rescues tiles the union test rejected, to confirm the refinement does
// something.
func TestPartitionRefinementRescues(t *testing.T) {
	rng := rand.New(rand.NewSource(72))
	rescued, refinedTrials := 0, 0
	for trial := 0; trial < 5000; trial++ {
		m := 2 + rng.Intn(2)
		regions := randomTileRegions(rng, m)
		i := rng.Intn(m)
		s := geom.RectAround(geom.Pt(rng.Float64(), rng.Float64()), rng.Float64()*0.1+0.01)
		po := geom.Pt(rng.Float64(), rng.Float64())
		p := geom.Pt(rng.Float64(), rng.Float64())

		sets := make([][]geom.Rect, m)
		for j := range regions {
			if j == i {
				sets[j] = []geom.Rect{s}
			} else {
				sets[j] = regions[j].Tiles
			}
		}
		if verifySets(sets, po, p) {
			continue // line 1 already accepts; not interesting
		}
		refinedTrials++
		if PartitionVerify(regions, i, s, po, p) {
			rescued++
		}
	}
	if refinedTrials == 0 {
		t.Fatal("no refinement trials")
	}
	if rescued == 0 {
		t.Log("partition refinement never rescued a tile in this sample (allowed but unusual)")
	}
}

// testing/quick property: gtVerifyMax decisions are invariant under tile
// order within each user's set.
func TestExactVerifyOrderInvariance(t *testing.T) {
	rng := rand.New(rand.NewSource(73))
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		m := 1 + r.Intn(3)
		regions := randomTileRegions(r, m)
		i := r.Intn(m)
		s := geom.RectAround(geom.Pt(r.Float64(), r.Float64()), r.Float64()*0.1+0.01)
		po := geom.Pt(r.Float64(), r.Float64())
		p := geom.Pt(r.Float64(), r.Float64())
		before := ExactVerify(regions, i, s, po, p)
		// Shuffle every region's tiles.
		for j := range regions {
			tiles := regions[j].Tiles
			rng.Shuffle(len(tiles), func(a, b int) { tiles[a], tiles[b] = tiles[b], tiles[a] })
		}
		return ExactVerify(regions, i, s, po, p) == before
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// testing/quick property: growing another user's region can only make
// verification harder (monotonicity): if the tile verifies against a
// superset region group, it verifies against the subset.
func TestExactVerifyMonotone(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		m := 2 + r.Intn(2)
		regions := randomTileRegions(r, m)
		i := r.Intn(m)
		s := geom.RectAround(geom.Pt(r.Float64(), r.Float64()), r.Float64()*0.1+0.01)
		po := geom.Pt(r.Float64(), r.Float64())
		p := geom.Pt(r.Float64(), r.Float64())

		if !ExactVerify(regions, i, s, po, p) {
			return true // nothing to check
		}
		// Remove one tile from some other user's region (keeping ≥1).
		j := (i + 1) % m
		if len(regions[j].Tiles) > 1 {
			regions[j].Tiles = regions[j].Tiles[:len(regions[j].Tiles)-1]
		}
		return ExactVerify(regions, i, s, po, p)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
		t.Fatal(err)
	}
}

// testing/quick property on the planner: Circle-MSR radii are never
// negative and the best POI reported matches the brute-force GNN.
func TestCircleMSRQuick(t *testing.T) {
	rng := rand.New(rand.NewSource(74))
	pts := randomPoints(300, rng)
	pl := mustPlanner(t, pts, DefaultOptions())
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		users := randomPoints(2+r.Intn(3), r)
		plan, err := planFull(pl, nil, PlanRequest{Kind: KindCircle, Users: users})
		if err != nil {
			return false
		}
		if plan.Regions[0].Circle.R < 0 {
			return false
		}
		want := gnn.BruteTopK(pts, users, gnn.Max, 1)[0]
		return plan.Best.Dist == want.Dist
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}
