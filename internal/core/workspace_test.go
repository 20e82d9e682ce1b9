package core

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"mpn/internal/geom"
	"mpn/internal/gnn"
)

// wsTestPOIs is a fixed random POI set shared by the workspace tests.
func wsTestPOIs(n int, seed int64) []geom.Point {
	rng := rand.New(rand.NewSource(seed))
	pois := make([]geom.Point, n)
	for i := range pois {
		pois[i] = geom.Pt(rng.Float64(), rng.Float64())
	}
	return pois
}

// wsTestGroup returns a clustered group of m users with random headings.
func wsTestGroup(rng *rand.Rand, m int) ([]geom.Point, []Direction) {
	base := geom.Pt(0.15+0.7*rng.Float64(), 0.15+0.7*rng.Float64())
	users := make([]geom.Point, m)
	dirs := make([]Direction, m)
	for i := range users {
		users[i] = geom.Pt(base.X+0.03*rng.Float64(), base.Y+0.03*rng.Float64())
		dirs[i] = Direction{Angle: 2 * 3.14159 * rng.Float64()}
	}
	return users, dirs
}

// TestWorkspaceReuseDifferential asserts that a tile plan on a dirty,
// heavily reused workspace produces plans (meeting point, regions, stats)
// identical to computations on a fresh workspace, across both aggregates,
// directed/undirected orderings, and buffered/unbuffered configurations.
// The dirty workspace deliberately crosses configurations and group sizes
// between trials, so stale scratch from one run shape cannot leak into
// the next.
func TestWorkspaceReuseDifferential(t *testing.T) {
	pois := wsTestPOIs(3000, 7)
	configs := []struct {
		name string
		mod  func(*Options)
	}{
		{"max-undirected-unbuffered", func(o *Options) {}},
		{"max-directed-unbuffered", func(o *Options) { o.Directed = true }},
		{"max-directed-buffered", func(o *Options) { o.Directed = true; o.Buffer = 50 }},
		{"sum-undirected-unbuffered", func(o *Options) { o.Aggregate = gnn.Sum }},
		{"sum-undirected-buffered", func(o *Options) { o.Aggregate = gnn.Sum; o.Buffer = 50 }},
		{"sum-directed-buffered", func(o *Options) { o.Aggregate = gnn.Sum; o.Directed = true; o.Buffer = 50 }},
	}
	dirty := NewWorkspace()
	rng := rand.New(rand.NewSource(11))
	for _, cfg := range configs {
		t.Run(cfg.name, func(t *testing.T) {
			opts := DefaultOptions()
			opts.TileLimit = 8
			cfg.mod(&opts)
			pl, err := NewPlanner(pois, opts)
			if err != nil {
				t.Fatal(err)
			}
			for trial := 0; trial < 6; trial++ {
				users, dirs := wsTestGroup(rng, 2+trial%4)
				if !opts.Directed {
					dirs = nil
				}
				fresh, errF := planFull(pl, NewWorkspace(), PlanRequest{Kind: KindTiles, Users: users, Dirs: dirs})
				reused, errR := planFull(pl, dirty, PlanRequest{Kind: KindTiles, Users: users, Dirs: dirs})
				if (errF == nil) != (errR == nil) {
					t.Fatalf("trial %d: fresh err %v, reused err %v", trial, errF, errR)
				}
				if !reflect.DeepEqual(fresh, reused) {
					t.Errorf("trial %d (m=%d): reused workspace diverged\nfresh:  %+v\nreused: %+v",
						trial, len(users), fresh, reused)
				}
				// Dirty the workspace further with an unrelated circle
				// plan before the next trial.
				if _, err := planFull(pl, dirty, PlanRequest{Kind: KindCircle, Users: users[:1]}); err != nil {
					t.Fatal(err)
				}
			}
		})
	}
}

// TestWorkspaceMemoAcrossShapes drives one workspace through the shape
// changes the verification memo's columns are sized by — m = 5, then
// m = 2, then SUM, then MAX again, buffered (dense buffer slots) and
// unbuffered (id → slot table) interleaved — and requires every plan,
// full and partial, to equal the same request on a fresh workspace. A
// memo cell, slot or running aggregate surviving a reset would surface
// here as a diverging region or work counter. Between plans the test
// scribbles over the per-plan state reset must re-derive — the pre-reject
// witnesses, the highest-filled-slot bounds, the per-tile ‖p°,·‖max record
// and the handed-over distances — and after each plan it requires all of
// it to equal a rescan of the regions the plan left behind.
func TestWorkspaceMemoAcrossShapes(t *testing.T) {
	pois := wsTestPOIs(3000, 43)
	shapes := []struct {
		m      int
		agg    gnn.Aggregate
		buffer int
	}{
		{5, gnn.Max, 50}, {2, gnn.Max, 50}, {3, gnn.Sum, 50}, {3, gnn.Max, 50},
		{5, gnn.Max, 0}, {2, gnn.Max, 0}, {4, gnn.Sum, 0}, {3, gnn.Max, 0},
		{5, gnn.Sum, 50}, {2, gnn.Max, 0},
	}
	shared := NewWorkspace()
	rng := rand.New(rand.NewSource(47))
	for n, sh := range shapes {
		opts := DefaultOptions()
		opts.TileLimit = 8
		opts.Aggregate = sh.agg
		opts.Buffer = sh.buffer
		pl, err := NewPlanner(pois, opts)
		if err != nil {
			t.Fatal(err)
		}
		users, _ := wsTestGroup(rng, sh.m)
		var stShared, stFresh PlanState
		for step := 0; step < 3; step++ {
			if step > 0 {
				// Minimal escape of one member: a partial regrow seeded
				// with the other members' retained tiles.
				i := step % sh.m
				users[i] = escapeFrom(stFresh.Regions()[i], users[i], rng.Float64()*6)
			}
			tp := &shared.tp
			for i := range tp.witness {
				tp.witness[i] = 1
			}
			for i := range tp.memo.filledTo {
				tp.memo.filledTo[i] = 1 << 20
			}
			for i := range tp.tileDo {
				tp.tileDo[i] = append(tp.tileDo[i], -1)
			}
			tp.dps = append(tp.dps, -1, -1, -1)
			got, outG, errG := pl.Plan(shared, PlanRequest{Kind: KindTiles, Users: users, State: &stShared})
			want, outW, errW := pl.Plan(NewWorkspace(), PlanRequest{Kind: KindTiles, Users: users, State: &stFresh})
			if errG != nil || errW != nil {
				t.Fatalf("shape %d step %d: errs %v / %v", n, step, errG, errW)
			}
			assertMemoMatchesRescan(t, tp, fmt.Sprintf("shape %d (%+v) step %d", n, sh, step))
			if outG != outW || !reflect.DeepEqual(got, want) {
				t.Fatalf("shape %d (%+v) step %d: shared workspace diverged (%v vs %v)\nshared: %+v\nfresh:  %+v",
					n, sh, step, outG, outW, got, want)
			}
		}
	}
}

// TestCircleMSRIntoMatchesCircleMSR is the circle-method analog of the
// differential test.
func TestCircleMSRIntoMatchesCircleMSR(t *testing.T) {
	pois := wsTestPOIs(2000, 9)
	for _, agg := range []gnn.Aggregate{gnn.Max, gnn.Sum} {
		opts := DefaultOptions()
		opts.Aggregate = agg
		pl, err := NewPlanner(pois, opts)
		if err != nil {
			t.Fatal(err)
		}
		ws := NewWorkspace()
		rng := rand.New(rand.NewSource(13))
		for trial := 0; trial < 5; trial++ {
			users, _ := wsTestGroup(rng, 2+trial)
			fresh, errF := planFull(pl, nil, PlanRequest{Kind: KindCircle, Users: users})
			reused, errR := planFull(pl, ws, PlanRequest{Kind: KindCircle, Users: users})
			if errF != nil || errR != nil {
				t.Fatalf("agg %v trial %d: errs %v / %v", agg, trial, errF, errR)
			}
			if !reflect.DeepEqual(fresh, reused) {
				t.Errorf("agg %v trial %d: circle plans diverged", agg, trial)
			}
		}
	}
}

// TestPlanDoesNotAliasWorkspace asserts that a returned plan survives
// arbitrary workspace reuse: the regions of an earlier plan must not
// change when the same workspace computes a different plan.
func TestPlanDoesNotAliasWorkspace(t *testing.T) {
	pois := wsTestPOIs(2000, 21)
	opts := DefaultOptions()
	opts.TileLimit = 8
	opts.Buffer = 50
	pl, err := NewPlanner(pois, opts)
	if err != nil {
		t.Fatal(err)
	}
	ws := NewWorkspace()
	rng := rand.New(rand.NewSource(23))
	users, _ := wsTestGroup(rng, 3)
	first, err := planFull(pl, ws, PlanRequest{Kind: KindTiles, Users: users})
	if err != nil {
		t.Fatal(err)
	}
	snapshot, err := planFull(pl, NewWorkspace(), PlanRequest{Kind: KindTiles, Users: users})
	if err != nil {
		t.Fatal(err)
	}
	for trial := 0; trial < 4; trial++ {
		others, _ := wsTestGroup(rng, 2+trial)
		if _, err := planFull(pl, ws, PlanRequest{Kind: KindTiles, Users: others}); err != nil {
			t.Fatal(err)
		}
	}
	if !reflect.DeepEqual(first, snapshot) {
		t.Error("plan mutated by later computations on the same workspace")
	}
}

// TestTileMSRIntoSteadyStateAllocs gates the core planner's steady-state
// allocation budget: after warm-up, one tile plan on an owned workspace
// may allocate only the exported plan regions (one header slice plus one
// tile arena) and nothing else. This is the regression fence that keeps
// future changes from silently re-introducing per-plan churn.
func TestTileMSRIntoSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation accounting is perturbed by the race detector")
	}
	pois := wsTestPOIs(4000, 31)
	opts := DefaultOptions()
	opts.TileLimit = 10
	opts.Directed = true
	opts.Buffer = 50
	pl, err := NewPlanner(pois, opts)
	if err != nil {
		t.Fatal(err)
	}
	ws := NewWorkspace()
	rng := rand.New(rand.NewSource(37))
	users, dirs := wsTestGroup(rng, 3)
	step := 0
	locs := make([]geom.Point, len(users))
	run := func() {
		step++
		jitter := 1e-5 * float64(step%5)
		for i, u := range users {
			locs[i] = geom.Pt(u.X+jitter, u.Y-jitter)
		}
		if _, err := planFull(pl, ws, PlanRequest{Kind: KindTiles, Users: locs, Dirs: dirs}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 5; i++ {
		run() // warm the workspace to its working size
	}
	allocs := testing.AllocsPerRun(100, run)
	const budget = 4
	if allocs > budget {
		t.Errorf("steady-state tile plan allocates %.1f/op, budget %d", allocs, budget)
	}
}
