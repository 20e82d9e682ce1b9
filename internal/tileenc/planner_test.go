package tileenc

import (
	"math"
	"math/rand"
	"testing"

	"mpn/internal/core"
	"mpn/internal/geom"
	"mpn/internal/gnn"
)

// TestPlannerRegionsTakeLatticeLayout encodes the regions Tile-MSR plans
// with buffering (b = 100), for undirected and directed tiles under MAX
// and SUM, at split levels 0, 2 (the default), 5 and 8 (the deep ones
// with fewer tile rounds α, as they plan slowly), for groups
// centred in the open, within 2δ of x = 0, within 2δ of y = 0, and on the
// origin: each group's registration plan, then a chain of incremental
// replans over its escapes, so partial regrows and retained regions are
// covered. Every region must take the lattice layout and decode to its
// tiles exactly (checkLattice), and any tile order must give the same
// bytes. Encode derives δ, as proto.EncodeRegion and internal/sim call it.
func TestPlannerRegionsTakeLatticeLayout(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	pois := uniformPOIs(rng)
	for i := range pois {
		pois[i] = pois[i].Sub(geom.Pt(0.5, 0.5)) // the axes cross the POIs
	}
	for _, directed := range []bool{false, true} {
		for _, agg := range []gnn.Aggregate{gnn.Max, gnn.Sum} {
			for _, sp := range []struct{ split, alpha int }{{0, 30}, {2, 30}, {5, 6}, {8, 2}} {
				split, opts := sp.split, core.DefaultOptions()
				opts.Aggregate, opts.Buffer, opts.Directed, opts.SplitLevel, opts.TileLimit = agg, 100, directed, split, sp.alpha
				pl, err := core.NewPlanner(pois, opts)
				if err != nil {
					t.Fatal(err)
				}
				regions, nearAxis, outcomes := 0, 0, map[core.IncOutcome]int{}
				for g, at := range []geom.Point{{X: 0.2, Y: -0.25}, {X: 0, Y: 0.2}, {X: -0.3, Y: 0}, {}} {
					m := 2 + g%2
					// The group's members stay within 0.007 of its centre,
					// which lies within 0.004 of at.
					c := at.Add(geom.Pt(0.008*rng.Float64()-0.004, 0.008*rng.Float64()-0.004))
					users := make([]geom.Point, m)
					dirs := make([]core.Direction, m)
					for i := range users {
						users[i] = c.Add(geom.Pt(0.008*rng.Float64()-0.004, 0.008*rng.Float64()-0.004))
						dirs[i].Angle = 2 * math.Pi * rng.Float64()
					}
					var st core.PlanState
					ws := core.NewWorkspace()
					plan, _, err := pl.Plan(ws, core.PlanRequest{Kind: core.KindTiles, Users: users, State: &st})
					if err != nil {
						t.Fatal(err)
					}
					for round := 0; round < 10-split; round++ {
						for _, r := range plan.Regions {
							checkPlannerRegion(t, r.Tiles, rng)
							regions++
							if near(r.Tiles, at) {
								nearAxis++
							}
						}
						// Members walk on their headings, turning back
						// toward the centre, until one escapes or for 200
						// steps.
						for step, moved := 0, false; step < 200 && !moved; step++ {
							for i := range users {
								dirs[i].Angle += 0.3 * (rng.Float64() - 0.5)
								if users[i].Dist(c) > 0.006 {
									dirs[i].Angle = c.Sub(users[i]).Angle()
								}
								users[i] = users[i].Add(geom.Pt(0.001*math.Cos(dirs[i].Angle), 0.001*math.Sin(dirs[i].Angle)))
								moved = moved || !plan.Regions[i].Contains(users[i])
							}
						}
						var out core.IncOutcome
						plan, out, err = pl.Plan(ws, core.PlanRequest{Kind: core.KindTiles, Users: users, Dirs: dirs, State: &st})
						if err != nil {
							t.Fatal(err)
						}
						outcomes[out]++
					}
				}
				if outcomes[core.IncPartial] == 0 {
					t.Errorf("directed=%v %v split %d: no partial regrow in %v", directed, agg, split, outcomes)
				}
				if nearAxis == 0 {
					t.Errorf("directed=%v %v split %d: no region within 2δ of an axis", directed, agg, split)
				}
				t.Logf("directed=%v %v split %d: %d regions, %d near an axis, outcomes %v", directed, agg, split, regions, nearAxis, outcomes)
			}
		}
	}
}

// near reports whether a region, planned for a group placed at at, has a
// tile within 2δ of the axes at passes through (both at the origin), δ
// the region's widest tile.
func near(tiles []geom.Rect, at geom.Point) bool {
	delta := 0.0
	for _, t := range tiles {
		delta = max(delta, t.Width())
	}
	for _, t := range tiles {
		dx := max(t.Min.X, -t.Max.X, 0) // distance from x = 0
		dy := max(t.Min.Y, -t.Max.Y, 0)
		if (at.X != 0 || dx <= 2*delta) && (at.Y != 0 || dy <= 2*delta) && (at.X == 0 || at.Y == 0) {
			return true
		}
	}
	return false
}

func uniformPOIs(rng *rand.Rand) []geom.Point {
	pois := make([]geom.Point, 4000)
	for i := range pois {
		pois[i] = geom.Pt(rng.Float64(), rng.Float64())
	}
	return pois
}

// plannedRegion is one member's region of a three-member group planned at
// the server's defaults.
func plannedRegion(tb testing.TB) []geom.Rect {
	rng := rand.New(rand.NewSource(43))
	opts := core.DefaultOptions()
	opts.Buffer = 100
	pl, err := core.NewPlanner(uniformPOIs(rng), opts)
	if err != nil {
		tb.Fatal(err)
	}
	users := []geom.Point{geom.Pt(0.4, 0.4), geom.Pt(0.43, 0.41), geom.Pt(0.41, 0.44)}
	plan, _, err := pl.Plan(core.NewWorkspace(), core.PlanRequest{Kind: core.KindTiles, Users: users})
	if err != nil {
		tb.Fatal(err)
	}
	return plan.Regions[0].Tiles
}

// checkPlannerRegion runs checkLattice and the reorder check on one region.
func checkPlannerRegion(t *testing.T, tiles []geom.Rect, rng *rand.Rand) {
	t.Helper()
	enc := Encode(tiles)
	checkLattice(t, tiles, enc)
	shuffled := append([]geom.Rect(nil), tiles...)
	rng.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
	if string(Encode(shuffled)) != string(enc) {
		t.Fatalf("a reordered region of %d tiles encodes differently", len(tiles))
	}
}
