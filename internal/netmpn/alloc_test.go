package netmpn

import (
	"math/rand"
	"testing"

	"mpn/internal/core"
	"mpn/internal/geom"
)

// TestNetPlanAllocs is the allocation fence of network planning at
// m = 3: the region search runs in workspace scratch, so a plan allocates
// only what it returns — the region slice, and per fresh region the
// Region, its Segs and its junction distances. A fresh plan may allocate
// 1 + 3 per region, a partial plan 1 + 3 per dirty member, a kept plan
// nothing.
func TestNetPlanAllocs(t *testing.T) {
	b := testBackend(t, 9, BackendConfig{Aggregate: Max})
	ws := core.NewWorkspace()
	req := func(users []geom.Point, st *core.PlanState) core.PlanRequest {
		return core.PlanRequest{Kind: core.KindNetRange, Users: users, State: st}
	}
	plan := func(users []geom.Point, st *core.PlanState) (core.Plan, core.IncOutcome) {
		p, out, err := b.PlanNet(ws, req(users, st))
		if err != nil {
			t.Fatal(err)
		}
		return p, out
	}

	users := []geom.Point{geom.Pt(0.3, 0.4), geom.Pt(0.5, 0.6), geom.Pt(0.7, 0.3)}
	n := testing.AllocsPerRun(50, func() { plan(users, nil) })
	t.Logf("fresh plan: %.1f allocations", n)
	if n > 1+3*3 {
		t.Errorf("a fresh plan allocates %.1f times, want ≤ %d", n, 1+3*3)
	}

	var base core.PlanState
	first, _ := plan(users, &base)
	if _, out := plan(users, &base); out != core.IncKept {
		t.Fatalf("replanning in place is %v, want kept", out)
	}
	st := base
	if n := testing.AllocsPerRun(50, func() { st = base; plan(users, &st) }); n != 0 {
		t.Errorf("a kept plan allocates %.1f times, want 0", n)
	}

	// Nudge one member off her region until the update is a partial one.
	rng := rand.New(rand.NewSource(5))
	moved := append([]geom.Point(nil), users...)
	for try := 0; ; try++ {
		if try == 1000 {
			t.Fatal("no nudge gave a partial plan")
		}
		moved[0] = geom.Pt(users[0].X+0.1*(rng.Float64()-0.5), users[0].Y+0.1*(rng.Float64()-0.5))
		st = base
		if _, out := plan(moved, &st); out == core.IncPartial {
			break
		}
	}
	st = base
	p, _ := plan(moved, &st)
	dirty := 0
	for i := range p.Regions {
		if p.Regions[i].Net != first.Regions[i].Net {
			dirty++
		}
	}
	n = testing.AllocsPerRun(50, func() { st = base; plan(moved, &st) })
	t.Logf("partial plan, %d dirty: %.1f allocations", dirty, n)
	if n > float64(1+3*dirty) {
		t.Errorf("a partial plan with %d dirty members allocates %.1f times, want ≤ %d", dirty, n, 1+3*dirty)
	}
}
