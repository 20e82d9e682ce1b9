package engine

import (
	"math/rand"
	"reflect"
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

// checkEpochStep asserts the epoch contract between two consecutive
// notifications of one group: a slot's epoch advances by exactly 1 when
// its region content changed, and not at all otherwise.
func checkEpochStep(t *testing.T, step string, prev, cur Notification) {
	t.Helper()
	if len(cur.Epochs) != len(cur.Regions) || len(prev.Epochs) != len(cur.Epochs) {
		t.Fatalf("%s: epochs %v after %v for %d regions", step, cur.Epochs, prev.Epochs, len(cur.Regions))
	}
	for i, e := range cur.Epochs {
		want := prev.Epochs[i]
		if !reflect.DeepEqual(prev.Regions[i], cur.Regions[i]) {
			want++
		}
		if e != want {
			t.Fatalf("%s: slot %d epoch %d → %d, want %d (region changed: %v)",
				step, i, prev.Epochs[i], e, want, want != prev.Epochs[i])
		}
	}
}

// TestNotificationEpochs asserts the epoch vector rides every successful
// notification of an incremental engine and follows the core contract:
// registration starts every slot at 1, each later plan advances exactly
// the slots whose region content changed (a kept update advances
// nothing, a whole-group teleport every slot), and the vector is a
// private copy (stable after later recomputations).
func TestNotificationEpochs(t *testing.T) { checkNotificationEpochs(t, true) }

// TestNotificationEpochsNonIncremental: an engine without Options.Replan
// records every plan into the same core.PlanState, so its epochs follow
// the same contract; a repeated snapshot, planned from scratch into the
// same regions, advances nothing.
func TestNotificationEpochsNonIncremental(t *testing.T) { checkNotificationEpochs(t, false) }

func checkNotificationEpochs(t *testing.T, incremental bool) {
	planner := epochTestPlanner(t)
	opts := Options{Shards: 1}
	if incremental {
		opts.Replan = PlannerKindIncFunc(planner, core.KindTiles, nil)
	}
	eng := NewWS(PlannerKindWSFunc(planner, core.KindTiles, nil), opts)
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
	if got := eng.Epochs(id); !reflect.DeepEqual(got, reg.Epochs) {
		t.Fatalf("Epochs() = %v, want %v", got, reg.Epochs)
	}
	update := func(locs []geom.Point) Notification {
		t.Helper()
		if err := eng.Update(id, locs, nil); err != nil {
			t.Fatal(err)
		}
		return nextNotification(t, sub)
	}

	// In-region jitter: kept on an incremental engine, a from-scratch
	// plan otherwise; either way epochs follow content. Sent twice, the
	// second plan repeats the first's regions and advances nothing.
	jit := append([]geom.Point(nil), users...)
	jit[0] = geom.Pt(users[0].X+1e-6, users[0].Y+1e-6)
	kept := update(jit)
	if incremental && kept.Outcome != core.IncKept {
		t.Skipf("jitter outcome %v, workload unsuitable", kept.Outcome)
	}
	checkEpochStep(t, "jitter", reg, kept)
	again := update(jit)
	if !reflect.DeepEqual(again.Regions, kept.Regions) || !reflect.DeepEqual(again.Epochs, kept.Epochs) {
		t.Fatalf("repeated snapshot: epochs %v → %v, regions equal %v",
			kept.Epochs, again.Epochs, reflect.DeepEqual(again.Regions, kept.Regions))
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
	full := update(teleport(0.3, 0.3))
	if full.Outcome != core.IncFull {
		t.Fatalf("teleport outcome %v", full.Outcome)
	}
	checkEpochStep(t, "teleport", again, full)
	for i := range full.Epochs {
		if full.Epochs[i] == again.Epochs[i] {
			t.Fatalf("slot %d epoch did not advance on a teleport: %d", i, full.Epochs[i])
		}
	}
	snapshot := append([]uint64(nil), full.Epochs...)
	checkEpochStep(t, "second teleport", full, update(teleport(-0.3, 0.3)))
	if !reflect.DeepEqual(full.Epochs, snapshot) {
		t.Fatal("notification epoch vector mutated by a later recomputation")
	}
}
