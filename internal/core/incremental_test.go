package core

import (
	"math"
	"math/rand"
	"reflect"
	"testing"

	"mpn/internal/geom"
	"mpn/internal/gnn"
)

// incConfig is one cell of the differential grid: aggregate × directed ×
// buffered × region shape.
type incConfig struct {
	name   string
	circle bool
	mod    func(*Options)
}

func incConfigs() []incConfig {
	return []incConfig{
		{name: "tile/max", mod: nil},
		{name: "tile/max/directed/buffered", mod: func(o *Options) {
			o.Directed = true
			o.Theta = math.Pi / 3
			o.Buffer = 8
		}},
		{name: "tile/sum", mod: func(o *Options) { o.Aggregate = gnn.Sum }},
		{name: "tile/sum/directed/buffered", mod: func(o *Options) {
			o.Aggregate = gnn.Sum
			o.Directed = true
			o.Theta = math.Pi / 3
			o.Buffer = 8
		}},
		{name: "circle/max", circle: true},
		{name: "circle/sum", circle: true, mod: func(o *Options) { o.Aggregate = gnn.Sum }},
	}
}

// incStep advances the report stream: a mix of whole-group teleports
// (result-set churn → full replans), in-region jitter (kept plans), and
// single-user escapes (partial regrows).
func incStep(step int, users []geom.Point, rng *rand.Rand) {
	switch step % 6 {
	case 0: // teleport the whole group: the optimum almost surely moves
		c := geom.Pt(0.15+0.7*rng.Float64(), 0.15+0.7*rng.Float64())
		for i := range users {
			users[i] = geom.Pt(c.X+0.03*rng.Float64(), c.Y+0.03*rng.Float64())
		}
	case 3: // one user strides: escapes her region, optimum often survives
		i := step / 6 % len(users)
		a := rng.Float64() * 2 * math.Pi
		users[i] = geom.Pt(users[i].X+0.04*math.Cos(a), users[i].Y+0.04*math.Sin(a))
	case 5: // one user nudges: borderline escape
		i := (step/6 + 1) % len(users)
		a := rng.Float64() * 2 * math.Pi
		users[i] = geom.Pt(users[i].X+0.008*math.Cos(a), users[i].Y+0.008*math.Sin(a))
	case 4: // duplicate report: nobody moved at all
	default: // drift well inside the regions
		for i := range users {
			users[i] = geom.Pt(users[i].X+1e-6*rng.Float64(), users[i].Y-1e-6*rng.Float64())
		}
	}
}

// TestIncrementalDifferential is the correctness fence of the incremental
// planner: randomized report streams across aggregates × directed ×
// buffered × region shape, with every incremental plan checked against an
// independent full replan of the same snapshot.
//
//   - The meeting point must always byte-match the full replan's (both
//     recompute the result set from scratch).
//   - A full-fallback outcome must produce regions byte-identical to the
//     full replan (it is one).
//   - A kept outcome must return the retained regions verbatim, with every
//     member still inside hers.
//   - A partial outcome must keep every clean member's region verbatim
//     and cover every member.
//   - Every plan, whatever the outcome, must satisfy the Definition 3
//     independence property on sampled location instances.
func TestIncrementalDifferential(t *testing.T) {
	for _, cfg := range incConfigs() {
		cfg := cfg
		t.Run(cfg.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(41))
			pts := randomPoints(350, rng)
			opts := tileOpts(cfg.mod)
			opts.TileLimit = 8
			pl := mustPlanner(t, pts, opts)

			users := make([]geom.Point, 3)
			c := geom.Pt(0.5, 0.5)
			for i := range users {
				users[i] = geom.Pt(c.X+0.02*float64(i), c.Y-0.015*float64(i))
			}
			dirs := make([]Direction, len(users))

			var st PlanState
			ws := NewWorkspace()     // reused across incremental calls
			wsFull := NewWorkspace() // reused across reference replans
			var prev []SafeRegion
			counts := map[IncOutcome]int{}

			for step := 0; step < 72; step++ {
				incStep(step, users, rng)
				for i := range dirs {
					dirs[i] = Direction{Angle: rng.Float64() * 2 * math.Pi}
				}

				var plan, full Plan
				var out IncOutcome
				var err, errFull error
				if cfg.circle {
					plan, out, err = pl.Plan(ws, PlanRequest{Kind: KindCircle, Users: users, State: &st})
					full, errFull = planFull(pl, wsFull, PlanRequest{Kind: KindCircle, Users: users})
				} else {
					plan, out, err = pl.Plan(ws, PlanRequest{Kind: KindTiles, Users: users, Dirs: dirs, State: &st})
					full, errFull = planFull(pl, wsFull, PlanRequest{Kind: KindTiles, Users: users, Dirs: dirs})
				}
				if err != nil || errFull != nil {
					t.Fatalf("step %d: inc err %v, full err %v", step, err, errFull)
				}
				counts[out]++

				if plan.Best != full.Best {
					t.Fatalf("step %d (%v): meeting point diverged: inc %+v full %+v",
						step, out, plan.Best, full.Best)
				}
				switch out {
				case IncFull:
					if !reflect.DeepEqual(plan.Regions, full.Regions) {
						t.Fatalf("step %d: full-fallback regions differ from full replan", step)
					}
				case IncKept:
					if prev == nil || &plan.Regions[0] != &prev[0] {
						t.Fatalf("step %d: kept outcome did not return the retained regions", step)
					}
					for i, u := range users {
						if !plan.Regions[i].Contains(u) {
							t.Fatalf("step %d: kept region %d misses its user", step, i)
						}
					}
				case IncPartial:
					for i, u := range users {
						if !plan.Regions[i].Contains(u) {
							t.Fatalf("step %d: partial region %d misses its user", step, i)
						}
						if prev[i].Contains(u) && !reflect.DeepEqual(plan.Regions[i], prev[i]) {
							t.Fatalf("step %d: clean member %d's region was regrown", step, i)
						}
					}
				}
				assertPlanSound(t, pts, plan, pl.Options().Aggregate, rng, 25)
				prev = plan.Regions
			}

			for _, out := range []IncOutcome{IncFull, IncPartial, IncKept} {
				if counts[out] == 0 {
					t.Fatalf("stream never exercised outcome %v (counts %v)", out, counts)
				}
			}
		})
	}
}

// TestIncrementalSingleMember runs the incremental planner over a
// one-member group: the smallest group must cycle through kept, partial,
// and full outcomes like any other.
func TestIncrementalSingleMember(t *testing.T) {
	for _, cfg := range []incConfig{
		{name: "tile"},
		{name: "circle", circle: true},
	} {
		cfg := cfg
		t.Run(cfg.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(7))
			pts := randomPoints(300, rng)
			pl := mustPlanner(t, pts, tileOpts(nil))

			users := []geom.Point{geom.Pt(0.5, 0.5)}
			var st PlanState
			ws := NewWorkspace()
			counts := map[IncOutcome]int{}
			for step := 0; step < 60; step++ {
				incStep(step, users, rng)
				var plan Plan
				var out IncOutcome
				var err error
				if cfg.circle {
					plan, out, err = pl.Plan(ws, PlanRequest{Kind: KindCircle, Users: users, State: &st})
				} else {
					plan, out, err = pl.Plan(ws, PlanRequest{Kind: KindTiles, Users: users, State: &st})
				}
				if err != nil {
					t.Fatal(err)
				}
				counts[out]++
				if len(plan.Regions) != 1 {
					t.Fatalf("step %d: %d regions for a single member", step, len(plan.Regions))
				}
				assertPlanSound(t, pts, plan, pl.Options().Aggregate, rng, 15)
			}
			if counts[IncKept] == 0 || counts[IncFull] == 0 {
				t.Fatalf("single-member stream too uniform: %v", counts)
			}
		})
	}
}

// TestIncrementalInvalidateForcesFull is the escape hatch: after
// Invalidate, the next call must take the full path and byte-match a
// from-scratch replan even though nothing moved.
func TestIncrementalInvalidateForcesFull(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	pts := randomPoints(300, rng)
	pl := mustPlanner(t, pts, tileOpts(nil))
	users := randomPoints(3, rng)

	var st PlanState
	ws := NewWorkspace()
	if _, out, err := pl.Plan(ws, PlanRequest{Kind: KindTiles, Users: users, State: &st}); err != nil || out != IncFull {
		t.Fatalf("first call: outcome %v err %v", out, err)
	}
	if _, out, err := pl.Plan(ws, PlanRequest{Kind: KindTiles, Users: users, State: &st}); err != nil || out != IncKept {
		t.Fatalf("unchanged locations: outcome %v err %v", out, err)
	}
	st.Invalidate()
	if st.Valid() {
		t.Fatal("Invalidate left the state valid")
	}
	plan, out, err := pl.Plan(ws, PlanRequest{Kind: KindTiles, Users: users, State: &st})
	if err != nil || out != IncFull {
		t.Fatalf("after Invalidate: outcome %v err %v", out, err)
	}
	full, err := planFull(pl, NewWorkspace(), PlanRequest{Kind: KindTiles, Users: users})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(plan.Regions, full.Regions) {
		t.Fatal("forced-full plan differs from a from-scratch replan")
	}
}

// TestIncrementalStateMismatches: membership churn (size change) and a
// region-kind mismatch must both force the full path rather than
// validating against unusable state.
func TestIncrementalStateMismatches(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	pts := randomPoints(300, rng)
	pl := mustPlanner(t, pts, tileOpts(nil))
	ws := NewWorkspace()

	var st PlanState
	users := randomPoints(3, rng)
	if _, out, err := pl.Plan(ws, PlanRequest{Kind: KindTiles, Users: users, State: &st}); err != nil || out != IncFull {
		t.Fatalf("seed: outcome %v err %v", out, err)
	}
	// One member left: the retained three-region plan is unusable.
	if _, out, err := pl.Plan(ws, PlanRequest{Kind: KindTiles, Users: users[:2], State: &st}); err != nil || out != IncFull {
		t.Fatalf("size churn: outcome %v err %v", out, err)
	}
	// Tile state fed to the circle planner: kind mismatch.
	if _, out, err := pl.Plan(ws, PlanRequest{Kind: KindCircle, Users: users[:2], State: &st}); err != nil || out != IncFull {
		t.Fatalf("kind mismatch: outcome %v err %v", out, err)
	}
	// And now the state is circular: the tile planner must replan fully.
	if _, out, err := pl.Plan(ws, PlanRequest{Kind: KindTiles, Users: users[:2], State: &st}); err != nil || out != IncFull {
		t.Fatalf("kind mismatch (tile over circle state): outcome %v err %v", out, err)
	}
	if _, out, err := pl.Plan(ws, PlanRequest{Kind: KindTiles, Users: users[:2], State: &st}); err != nil || out != IncKept {
		t.Fatalf("recovery: outcome %v err %v", out, err)
	}
	if _, _, err := pl.Plan(ws, PlanRequest{Kind: KindTiles, State: &st}); err != ErrNoUsers {
		t.Fatalf("want ErrNoUsers, got %v", err)
	}
	if _, _, err := pl.Plan(ws, PlanRequest{Kind: KindCircle, State: &st}); err != ErrNoUsers {
		t.Fatalf("want ErrNoUsers, got %v", err)
	}
}

// TestIncrementalMultiDirtyITVerify: regression test for the IT-Verify
// ablation (GroupVerify=false) crashing during a partial regrow with two
// simultaneously dirty members — the first dirty seed used to be
// verified while the second dirty member's region was still empty, and
// the tile-group enumeration indexed into the empty set. The drifting
// two-member stream below panicked at many seeds before the empty-set
// guard in itVerifyMaxInto; it also cross-checks soundness and clean
// -region preservation on every partial outcome. It runs twice. With
// m = 3 at the default growth depth α = 10, two escapees are most of the
// group and take the full regrow, so the partial outcomes have one dirty
// member. With m = 5, three members never move, two escapees are a
// minority, and the stream must reach the partial path with both dirty;
// α = 3 there keeps IT-Verify's enumeration over five regions to seconds.
func TestIncrementalMultiDirtyITVerify(t *testing.T) {
	for _, tc := range []struct{ m, alpha, minDirty int }{
		{m: 3, alpha: 10, minDirty: 1},
		{m: 5, alpha: 3, minDirty: 2},
	} {
		for _, seed := range []int64{1, 2, 4} {
			rng := rand.New(rand.NewSource(seed))
			pts := randomPoints(500, rng)
			pl := mustPlanner(t, pts, tileOpts(func(o *Options) { o.GroupVerify = false; o.TileLimit = tc.alpha }))
			users := randomPoints(tc.m, rng)
			var st PlanState
			ws := NewWorkspace()
			if _, _, err := pl.Plan(ws, PlanRequest{Kind: KindTiles, Users: users, State: &st}); err != nil {
				t.Fatal(err)
			}
			hits := 0
			for step := 0; step < 40; step++ {
				d := 0.002 + 0.002*float64(step%5)
				users[0] = geom.Pt(users[0].X+d*rng.Float64(), users[0].Y-d*rng.Float64())
				users[1] = geom.Pt(users[1].X-d*rng.Float64(), users[1].Y+d*rng.Float64())
				prev := st.Regions()
				plan, out, err := pl.Plan(ws, PlanRequest{Kind: KindTiles, Users: users, State: &st})
				if err != nil {
					t.Fatal(err)
				}
				if out == IncPartial {
					// Members 2 and up never move, so they are always clean.
					for i := 2; i < len(users); i++ {
						if !reflect.DeepEqual(plan.Regions[i], prev[i]) {
							t.Fatalf("m=%d seed %d step %d: clean member %d's region changed", tc.m, seed, step, i)
						}
					}
					ndirty := 0
					for i := 0; i < 2; i++ {
						if !prev[i].Contains(users[i]) {
							ndirty++
						}
					}
					if ndirty >= tc.minDirty {
						hits++
					}
				}
				assertPlanSound(t, pts, plan, gnn.Max, rng, 15)
			}
			if hits == 0 {
				t.Fatalf("m=%d seed %d: stream never hit the partial path with %d dirty members", tc.m, seed, tc.minDirty)
			}
		}
	}
}

// TestIncrementalMajorityRule pins when a partial regrow is attempted: in
// a group of at most three, only while the escapees are a minority
// (2·dirty ≤ m); in a larger group, whatever the dirty count. With most
// of a small group dirty the update takes the full path, and its regions
// are bit-identical to the same request without a State; otherwise it
// stays partial and keeps every clean region verbatim.
func TestIncrementalMajorityRule(t *testing.T) {
	for _, tc := range []struct {
		m     int
		dirty []int
		want  IncOutcome
	}{
		{m: 3, dirty: []int{0, 1}, want: IncFull},
		{m: 3, dirty: []int{1}, want: IncPartial},
		{m: 5, dirty: []int{0, 3}, want: IncPartial},
		{m: 4, dirty: []int{0, 1, 3}, want: IncPartial},
	} {
		rng := rand.New(rand.NewSource(23))
		pts := randomPoints(2000, rng)
		pl := mustPlanner(t, pts, tileOpts(func(o *Options) { o.Buffer = 50 }))
		users := make([]geom.Point, tc.m)
		for i := range users {
			users[i] = geom.Pt(0.5+0.02*rng.Float64(), 0.5+0.02*rng.Float64())
		}
		var st PlanState
		ws := NewWorkspace()
		if _, _, err := pl.Plan(ws, PlanRequest{Kind: KindTiles, Users: users, State: &st}); err != nil {
			t.Fatal(err)
		}
		prev, prevBest := st.Regions(), st.BestID()
		for _, i := range tc.dirty {
			users[i] = escapeFrom(prev[i], users[i], 2*math.Pi*rng.Float64())
		}
		plan, out, err := pl.Plan(ws, PlanRequest{Kind: KindTiles, Users: users, State: &st})
		if err != nil {
			t.Fatal(err)
		}
		if plan.Best.Item.ID != prevBest {
			t.Fatalf("m=%d dirty=%v: the optimum moved, so the fixture proves nothing", tc.m, tc.dirty)
		}
		if out != tc.want {
			t.Fatalf("m=%d dirty=%v: outcome %v, want %v", tc.m, tc.dirty, out, tc.want)
		}
		if out == IncFull {
			full, err := planFull(pl, NewWorkspace(), PlanRequest{Kind: KindTiles, Users: users})
			if err != nil {
				t.Fatal(err)
			}
			if plan.Best != full.Best || !reflect.DeepEqual(plan.Regions, full.Regions) {
				t.Fatalf("m=%d dirty=%v: full outcome differs from the State-less plan", tc.m, tc.dirty)
			}
			continue
		}
		for i, u := range users {
			if prev[i].Contains(u) && !reflect.DeepEqual(plan.Regions[i], prev[i]) {
				t.Fatalf("m=%d dirty=%v: clean member %d's region was regrown", tc.m, tc.dirty, i)
			}
			if !plan.Regions[i].Contains(u) {
				t.Fatalf("m=%d dirty=%v: member %d lies outside her region", tc.m, tc.dirty, i)
			}
		}
	}
}

// TestIncrementalDoomedPartialStopsAtSeed: a partial regrow whose dirty
// member's seed is left uncovered by the retained regions stops there and
// falls back to the full path. The plan equals the State-less plan bit for
// bit, and the work the doomed partial wasted is at most its seeds'
// Divide-Verify: (4^(L+1)−1)/3 nodes per dirty member (each node is
// counted at most once, as accepted or rejected), each verified against
// at most b buffered candidates.
func TestIncrementalDoomedPartialStopsAtSeed(t *testing.T) {
	const b = 8
	opts := tileOpts(func(o *Options) { o.Buffer = b })
	rng := rand.New(rand.NewSource(5))
	pts := randomPoints(2000, rng)
	pl := mustPlanner(t, pts, opts)
	users := []geom.Point{geom.Pt(0.4, 0.4), geom.Pt(0.42, 0.41), geom.Pt(0.41, 0.43)}
	var st PlanState
	ws := NewWorkspace()
	if _, _, err := pl.Plan(ws, PlanRequest{Kind: KindTiles, Users: users, State: &st}); err != nil {
		t.Fatal(err)
	}
	nodes := (1<<(2*(opts.SplitLevel+1)) - 1) / 3
	doomed := 0
	for step := 0; step < 60 && doomed < 3; step++ {
		// One member strides 0.03 — far enough past her region that the
		// retained regions often leave her seed no room.
		i := step % len(users)
		a := 2 * math.Pi * rng.Float64()
		users[i] = geom.Pt(users[i].X+0.03*math.Cos(a), users[i].Y+0.03*math.Sin(a))
		prev, prevBest := st.Regions(), st.BestID()
		plan, out, err := pl.Plan(ws, PlanRequest{Kind: KindTiles, Users: users, State: &st})
		if err != nil {
			t.Fatal(err)
		}
		ndirty := 0
		for j, u := range users {
			if !prev[j].Contains(u) {
				ndirty++
			}
		}
		if out != IncFull || plan.Best.Item.ID != prevBest || ndirty != 1 {
			continue
		}
		doomed++
		full, err := planFull(pl, NewWorkspace(), PlanRequest{Kind: KindTiles, Users: users})
		if err != nil {
			t.Fatal(err)
		}
		if plan.Best != full.Best || !reflect.DeepEqual(plan.Regions, full.Regions) {
			t.Fatalf("step %d: doomed partial's plan differs from the State-less plan", step)
		}
		tiles := func(p Plan) int { return p.Stats.TilesAccepted + p.Stats.TilesRejected }
		if extra := tiles(plan) - tiles(full); extra < 0 || extra > ndirty*nodes {
			t.Fatalf("step %d: doomed partial wasted %d Divide-Verify nodes, budget %d", step, extra, ndirty*nodes)
		}
		if extra := plan.Stats.TileVerifies - full.Stats.TileVerifies; extra < 0 || extra > ndirty*nodes*b {
			t.Fatalf("step %d: doomed partial wasted %d tile verifies, budget %d", step, extra, ndirty*nodes*b)
		}
	}
	if doomed == 0 {
		t.Fatal("stream never reached a doomed partial regrow")
	}
}

// TestIncrementalWorkspaceIndependence: an incremental stream driven
// through a dirty, reused workspace must produce exactly the plans of
// the same stream driven through fresh workspaces — the PR 2 differential
// extended to the incremental entry points.
func TestIncrementalWorkspaceIndependence(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	pts := randomPoints(300, rng)
	pl := mustPlanner(t, pts, tileOpts(func(o *Options) { o.Buffer = 8 }))

	users := randomPoints(3, rng)
	snapshots := make([][]geom.Point, 40)
	for s := range snapshots {
		incStep(s, users, rng)
		snapshots[s] = append([]geom.Point(nil), users...)
	}

	var stA, stB PlanState
	wsA := NewWorkspace()
	for s, snap := range snapshots {
		planA, outA, errA := pl.Plan(wsA, PlanRequest{Kind: KindTiles, Users: snap, State: &stA})
		planB, outB, errB := pl.Plan(NewWorkspace(), PlanRequest{Kind: KindTiles, Users: snap, State: &stB})
		if errA != nil || errB != nil {
			t.Fatalf("step %d: %v %v", s, errA, errB)
		}
		if outA != outB {
			t.Fatalf("step %d: outcome diverged %v vs %v", s, outA, outB)
		}
		if planA.Best != planB.Best || !reflect.DeepEqual(planA.Regions, planB.Regions) {
			t.Fatalf("step %d: plans diverged across workspaces", s)
		}
	}
}
