package engine

import (
	"math/rand"
	"testing"
	"time"

	"mpn/internal/core"
	"mpn/internal/geom"
)

func epochTestPlanner(t *testing.T) *core.Planner {
	t.Helper()
	rng := rand.New(rand.NewSource(21))
	pois := make([]geom.Point, 2000)
	for i := range pois {
		pois[i] = geom.Pt(rng.Float64(), rng.Float64())
	}
	opts := core.DefaultOptions()
	opts.TileLimit = 8
	opts.Buffer = 30
	planner, err := core.NewPlanner(pois, opts)
	if err != nil {
		t.Fatal(err)
	}
	return planner
}

func nextNotification(t *testing.T, sub *Subscription) Notification {
	t.Helper()
	select {
	case n, ok := <-sub.C:
		if !ok {
			t.Fatal("subscription closed")
		}
		return n
	case <-time.After(10 * time.Second):
		t.Fatal("timed out waiting for notification")
	}
	return Notification{}
}

// TestNotificationEpochs asserts the epoch vector rides every successful
// notification of an incremental engine and follows the core contract:
// registration starts every slot at 1, a kept update advances nothing, a
// from-scratch replan advances every changed slot, and the vector is a
// private copy (stable after later recomputations).
func TestNotificationEpochs(t *testing.T) {
	planner := epochTestPlanner(t)
	eng := NewWS(PlannerKindWSFunc(planner, core.KindTiles, nil), Options{
		Shards: 1, Replan: PlannerKindIncFunc(planner, core.KindTiles, nil),
	})
	defer eng.Close()
	sub := eng.Subscribe(64)
	defer sub.Close()

	users := []geom.Point{geom.Pt(0.5, 0.5), geom.Pt(0.52, 0.51), geom.Pt(0.49, 0.53)}
	id, err := eng.Register(users, nil)
	if err != nil {
		t.Fatal(err)
	}
	reg := nextNotification(t, sub)
	if reg.Seq != 1 || len(reg.Epochs) != len(users) {
		t.Fatalf("registration notification: seq=%d epochs=%v", reg.Seq, reg.Epochs)
	}
	for i, e := range reg.Epochs {
		if e != 1 {
			t.Fatalf("slot %d registration epoch %d, want 1", i, e)
		}
	}
	if got := eng.Epochs(id); len(got) != len(users) {
		t.Fatalf("Epochs() = %v", got)
	}

	// In-region jitter: kept, same vector.
	jit := append([]geom.Point(nil), users...)
	jit[0] = geom.Pt(users[0].X+1e-6, users[0].Y+1e-6)
	if err := eng.Update(id, jit, nil); err != nil {
		t.Fatal(err)
	}
	kept := nextNotification(t, sub)
	if kept.Outcome != core.IncKept {
		t.Skipf("jitter outcome %v, workload unsuitable", kept.Outcome)
	}
	for i, e := range kept.Epochs {
		if e != reg.Epochs[i] {
			t.Fatalf("kept update advanced slot %d: %d → %d", i, reg.Epochs[i], e)
		}
	}

	// Whole-group teleport: the optimum moves, every region is regrown
	// from scratch and so every slot advances; the emitted vector must not
	// change under a later recomputation (it is a copy, not a view).
	teleport := func(dx, dy float64) []geom.Point {
		out := make([]geom.Point, len(users))
		for i, u := range users {
			out[i] = geom.Pt(u.X+dx, u.Y+dy)
		}
		return out
	}
	if err := eng.Update(id, teleport(0.3, 0.3), nil); err != nil {
		t.Fatal(err)
	}
	full := nextNotification(t, sub)
	if full.Outcome != core.IncFull {
		t.Fatalf("teleport outcome %v", full.Outcome)
	}
	for i := range full.Epochs {
		if full.Epochs[i] <= kept.Epochs[i] {
			t.Fatalf("slot %d epoch did not advance on a from-scratch replan: %d → %d", i, kept.Epochs[i], full.Epochs[i])
		}
	}
	snapshot := append([]uint64(nil), full.Epochs...)
	if err := eng.Update(id, teleport(-0.3, 0.3), nil); err != nil {
		t.Fatal(err)
	}
	_ = nextNotification(t, sub)
	for i := range snapshot {
		if full.Epochs[i] != snapshot[i] {
			t.Fatal("notification epoch vector mutated by a later recomputation")
		}
	}
}

// TestNotificationEpochsNonIncremental: engines without Options.Replan
// carry no epochs at all.
func TestNotificationEpochsNonIncremental(t *testing.T) {
	planner := epochTestPlanner(t)
	eng := NewWS(PlannerKindWSFunc(planner, core.KindTiles, nil), Options{Shards: 1})
	defer eng.Close()
	sub := eng.Subscribe(8)
	defer sub.Close()
	users := []geom.Point{geom.Pt(0.5, 0.5), geom.Pt(0.52, 0.51)}
	id, err := eng.Register(users, nil)
	if err != nil {
		t.Fatal(err)
	}
	if n := nextNotification(t, sub); n.Epochs != nil {
		t.Fatalf("non-incremental registration carries epochs %v", n.Epochs)
	}
	if err := eng.Update(id, users, nil); err != nil {
		t.Fatal(err)
	}
	if n := nextNotification(t, sub); n.Epochs != nil {
		t.Fatalf("non-incremental update carries epochs %v", n.Epochs)
	}
	if got := eng.Epochs(id); got != nil {
		t.Fatalf("Epochs() = %v on non-incremental engine", got)
	}
}
