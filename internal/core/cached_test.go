package core

import (
	"math/rand"
	"reflect"
	"testing"

	"mpn/internal/geom"
	"mpn/internal/nbrcache"
)

// TestCachedPlanningDifferential is the correctness fence of the shared
// neighborhood cache at the planner level: across aggregates × directed
// × buffered × region shape, every cached plan must be byte-identical
// to the uncached plan of the same snapshot — through hits, misses,
// certification rejections, and stale entries after POI mutation. Two
// co-located groups interleave so hits genuinely cross groups, and a
// POI is inserted mid-stream so entries go stale.
func TestCachedPlanningDifferential(t *testing.T) {
	for _, cfg := range incConfigs() {
		cfg := cfg
		t.Run(cfg.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(23))
			pts := randomPoints(400, rng)
			opts := tileOpts(cfg.mod)
			opts.TileLimit = 6
			pl := mustPlanner(t, pts, opts)
			cache := nbrcache.New(nbrcache.Config{})

			// Two groups sharing a hotspot: their centroids fall in the
			// same cache tile, so group B's lookups can be served by
			// entries group A populated.
			groups := [][]geom.Point{
				{geom.Pt(0.5, 0.5), geom.Pt(0.504, 0.498), geom.Pt(0.498, 0.503)},
				{geom.Pt(0.502, 0.501), geom.Pt(0.497, 0.499), geom.Pt(0.501, 0.496)},
			}
			dirs := make([]Direction, 3)
			wsC := NewWorkspace()
			wsU := NewWorkspace()

			for step := 0; step < 60; step++ {
				users := groups[step%2]
				// Drift inside the hotspot; occasionally teleport both
				// groups to a fresh tile (misses) and back.
				if step%17 == 16 {
					dx := 0.2 * rng.Float64()
					for _, g := range groups {
						for i := range g {
							g[i] = geom.Pt(g[i].X+dx, g[i].Y)
						}
					}
				} else {
					for i := range users {
						users[i] = geom.Pt(users[i].X+2e-4*(rng.Float64()-0.5), users[i].Y+2e-4*(rng.Float64()-0.5))
					}
				}
				for i := range dirs {
					dirs[i] = Direction{Angle: rng.Float64() * 6}
				}
				if step == 30 {
					// Mutate the POI set: every cached entry is now stale.
					pl.InsertPOI(geom.Pt(0.501, 0.5005))
				}

				var planC, planU Plan
				var errC, errU error
				if cfg.circle {
					planC, errC = planFull(pl, wsC, PlanRequest{Kind: KindCircle, Users: users, Cache: cache})
					planU, errU = planFull(pl, wsU, PlanRequest{Kind: KindCircle, Users: users})
				} else {
					planC, errC = planFull(pl, wsC, PlanRequest{Kind: KindTiles, Users: users, Dirs: dirs, Cache: cache})
					planU, errU = planFull(pl, wsU, PlanRequest{Kind: KindTiles, Users: users, Dirs: dirs})
				}
				if errC != nil || errU != nil {
					t.Fatalf("step %d: cached err %v, uncached err %v", step, errC, errU)
				}
				if !reflect.DeepEqual(planC, planU) {
					t.Fatalf("step %d: cached plan differs from uncached\ncached:   %+v\nuncached: %+v",
						step, planC, planU)
				}
			}
			st := cache.Stats()
			if st.Hits == 0 || st.Misses == 0 || st.Stale == 0 {
				t.Fatalf("%s: stream did not cover hit/miss/stale: %+v", cfg.name, st)
			}
		})
	}
}

// TestCachedIncrementalDifferential runs the incremental planners with
// and without the cache over one report stream: outcomes and plans must
// be byte-identical, including after a mid-stream POI insertion
// invalidates both the cache entries and the retained result set.
func TestCachedIncrementalDifferential(t *testing.T) {
	for _, cfg := range incConfigs() {
		cfg := cfg
		t.Run(cfg.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(29))
			pts := randomPoints(400, rng)
			opts := tileOpts(cfg.mod)
			opts.TileLimit = 8
			pl := mustPlanner(t, pts, opts)
			cache := nbrcache.New(nbrcache.Config{})

			users := []geom.Point{geom.Pt(0.5, 0.5), geom.Pt(0.52, 0.485), geom.Pt(0.49, 0.51)}
			dirs := make([]Direction, len(users))
			var stC, stU PlanState
			wsC := NewWorkspace()
			wsU := NewWorkspace()
			counts := map[IncOutcome]int{}

			for step := 0; step < 72; step++ {
				incStep(step, users, rng)
				for i := range dirs {
					dirs[i] = Direction{Angle: rng.Float64() * 6}
				}
				if step == 40 {
					pl.InsertPOI(geom.Pt(users[0].X+1e-3, users[0].Y-1e-3))
				}
				var planC, planU Plan
				var outC, outU IncOutcome
				var errC, errU error
				if cfg.circle {
					planC, outC, errC = pl.Plan(wsC, PlanRequest{Kind: KindCircle, Users: users, Cache: cache, State: &stC})
					planU, outU, errU = pl.Plan(wsU, PlanRequest{Kind: KindCircle, Users: users, State: &stU})
				} else {
					planC, outC, errC = pl.Plan(wsC, PlanRequest{Kind: KindTiles, Users: users, Dirs: dirs, Cache: cache, State: &stC})
					planU, outU, errU = pl.Plan(wsU, PlanRequest{Kind: KindTiles, Users: users, Dirs: dirs, State: &stU})
				}
				if errC != nil || errU != nil {
					t.Fatalf("step %d: cached err %v, uncached err %v", step, errC, errU)
				}
				if outC != outU {
					t.Fatalf("step %d: outcome diverged cached %v vs uncached %v", step, outC, outU)
				}
				counts[outC]++
				if planC.Best != planU.Best || !reflect.DeepEqual(planC.Regions, planU.Regions) {
					t.Fatalf("step %d (%v): cached incremental plan differs from uncached", step, outC)
				}
			}
			if counts[IncKept] == 0 || counts[IncFull] == 0 {
				t.Fatalf("stream too uniform: %v", counts)
			}
		})
	}
}

// TestInsertPOIConsistency: after InsertPOI the planner must behave as
// if it had been constructed over the extended point set — same plans,
// sound regions, and the new POI reachable as an optimum.
func TestInsertPOIConsistency(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	pts := randomPoints(300, rng)
	pl := mustPlanner(t, pts, tileOpts(nil))
	users := []geom.Point{geom.Pt(0.4, 0.4), geom.Pt(0.42, 0.39)}

	before, err := planFull(pl, nil, PlanRequest{Kind: KindTiles, Users: users})
	if err != nil {
		t.Fatal(err)
	}
	// Insert a POI right between the users: it must become the optimum.
	id := pl.InsertPOI(geom.Pt(0.41, 0.395))
	if id != 300 || pl.NumPOIs() != 301 {
		t.Fatalf("id=%d NumPOIs=%d", id, pl.NumPOIs())
	}
	after, err := planFull(pl, nil, PlanRequest{Kind: KindTiles, Users: users})
	if err != nil {
		t.Fatal(err)
	}
	if after.Best.Item.ID != id {
		t.Fatalf("inserted POI not optimal: best %+v (before %+v)", after.Best, before.Best)
	}
	// Rebuild a fresh planner over the extended set: plans must match.
	fresh := mustPlanner(t, pl.Points(), pl.Options())
	ref, err := planFull(fresh, nil, PlanRequest{Kind: KindTiles, Users: users})
	if err != nil {
		t.Fatal(err)
	}
	// Compare plan content, not Stats: a fresh STR bulk load arranges the
	// tree differently than an incremental insert, so candidate visit
	// order (and with it the early-exit verification counters) may
	// differ even though every decision and region is the same.
	if after.Best != ref.Best || !reflect.DeepEqual(after.Regions, ref.Regions) {
		t.Fatal("post-insert plan differs from a fresh planner over the extended set")
	}
	assertPlanSound(t, pl.Points(), after, pl.Options().Aggregate, rng, 20)
}
