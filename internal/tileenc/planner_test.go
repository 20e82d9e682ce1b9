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
// at the server's defaults (α = 30, b = 100), for undirected and directed
// tiles under MAX and SUM: each group's registration plan, then a chain of
// incremental replans over at least 20 escapes, so partial regrows and
// retained regions are covered. Every region must take the lattice layout
// and decode to its tiles exactly (checkLattice), and any tile order must
// give the same bytes. delta is the largest tile width, as
// proto.EncodeRegion and internal/sim pass it.
func TestPlannerRegionsTakeLatticeLayout(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	pois := uniformPOIs(rng)
	for _, directed := range []bool{false, true} {
		for _, agg := range []gnn.Aggregate{gnn.Max, gnn.Sum} {
			opts := core.DefaultOptions()
			opts.Aggregate, opts.Buffer, opts.Directed = agg, 100, directed
			pl, err := core.NewPlanner(pois, opts)
			if err != nil {
				t.Fatal(err)
			}
			regions, outcomes := 0, map[core.IncOutcome]int{}
			for g := 0; g < 3; g++ {
				m := 2 + g
				c := geom.Pt(0.2+0.6*rng.Float64(), 0.2+0.6*rng.Float64())
				users := make([]geom.Point, m)
				dirs := make([]core.Direction, m)
				for i := range users {
					users[i] = geom.Pt(c.X+0.05*rng.Float64(), c.Y+0.05*rng.Float64())
					dirs[i].Angle = 2 * math.Pi * rng.Float64()
				}
				var st core.PlanState
				ws := core.NewWorkspace()
				plan, _, err := pl.Plan(ws, core.PlanRequest{Kind: core.KindTiles, Users: users, State: &st})
				if err != nil {
					t.Fatal(err)
				}
				for escapes := 0; escapes < 20; {
					for _, r := range plan.Regions {
						checkPlannerRegion(t, r.Tiles, rng)
						regions++
					}
					// Members walk on their headings until one escapes.
					for moved := false; !moved; {
						for i := range users {
							dirs[i].Angle += 0.3 * (rng.Float64() - 0.5)
							step := geom.Pt(0.002*math.Cos(dirs[i].Angle), 0.002*math.Sin(dirs[i].Angle))
							users[i] = users[i].Add(step)
							if !plan.Regions[i].Contains(users[i]) {
								moved = true
								escapes++
							}
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
				t.Errorf("directed=%v %v: no partial regrow in %v", directed, agg, outcomes)
			}
			t.Logf("directed=%v %v: %d regions, outcomes %v", directed, agg, regions, outcomes)
		}
	}
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

func maxWidth(tiles []geom.Rect) float64 {
	delta := 0.0
	for _, tile := range tiles {
		delta = math.Max(delta, tile.Width())
	}
	return delta
}

// checkPlannerRegion runs checkLattice and the reorder check on one region.
func checkPlannerRegion(t *testing.T, tiles []geom.Rect, rng *rand.Rand) {
	t.Helper()
	delta := maxWidth(tiles)
	enc := Encode(tiles, delta)
	checkLattice(t, tiles, enc)
	shuffled := append([]geom.Rect(nil), tiles...)
	rng.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
	if string(Encode(shuffled, delta)) != string(enc) {
		t.Fatalf("a reordered region of %d tiles encodes differently", len(tiles))
	}
}
