package engine

import (
	"testing"

	"mpn/internal/core"
	"mpn/internal/geom"
)

// TestCountersCoalescedWithoutListener: a subscriber that never reads
// drops every notification after the registration's, and the engine
// still accounts every submission, as a recomputation of its own or as
// coalesced into a newer one.
func TestCountersCoalescedWithoutListener(t *testing.T) {
	p := newStubPlan()
	e := NewWS(p.fn, Options{Shards: 1, Workers: 1})
	defer e.Close()
	sub := e.Subscribe(1) // the registration notification fills it for good
	id, err := e.Register(threeUsers(), nil)
	if err != nil {
		t.Fatal(err)
	}

	// Wedge the worker inside the first recomputation, so the rest of the
	// burst piles up in the group's pending slot.
	p.blocking.Store(true)
	const submissions = 10
	if err := e.Submit(id, threeUsers(), nil); err != nil {
		t.Fatal(err)
	}
	<-p.entered
	for i := 1; i < submissions; i++ {
		if err := e.Submit(id, threeUsers(), nil); err != nil {
			t.Fatal(err)
		}
	}
	p.blocking.Store(false)
	close(p.release)
	e.quiesce(t)

	c := e.Counters()
	recomputed := uint64(e.Updates(id) - 1) // minus the registration plan
	if recomputed != 2 || c.Coalesced != submissions-2 {
		t.Fatalf("%d recomputations, %d coalesced; want 2 and %d", recomputed, c.Coalesced, submissions-2)
	}
	if d := sub.Dropped(); d != recomputed {
		t.Fatalf("listener dropped %d notifications, want %d", d, recomputed)
	}
}

// TestCountersPlanOutcomes: on both engine kinds — the NewWS adapter and
// Options.Replan — the per-outcome plan counts sum to the groups'
// Updates, registrations included. The adapter counts every plan full;
// the incremental engine counts a circle group's small moves partial at
// least once and an update at unchanged locations kept.
func TestCountersPlanOutcomes(t *testing.T) {
	pl := testPlanner(t, 400, 22)
	for _, tc := range []struct {
		name        string
		opts        Options
		incremental bool
	}{
		{"adapter", Options{Shards: 2}, false},
		{"replan", Options{Shards: 2, Replan: PlannerKindIncFunc(pl, core.KindCircle, nil)}, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			e := NewWS(PlannerKindWSFunc(pl, core.KindCircle, nil), tc.opts)
			defer e.Close()
			users := []geom.Point{geom.Pt(0.40, 0.40), geom.Pt(0.44, 0.42), geom.Pt(0.42, 0.45)}
			walker, err := e.Register(users, nil)
			if err != nil {
				t.Fatal(err)
			}
			submitter, err := e.Register(users, nil)
			if err != nil {
				t.Fatal(err)
			}
			// The walker steps member 0 just outside her circle, ten times.
			walk := append([]geom.Point(nil), users...)
			for i := 0; i < 10; i++ {
				for !e.NeedsUpdate(walker, 0, walk[0]) {
					walk[0].X += 0.002
				}
				if err := e.Update(walker, walk, nil); err != nil {
					t.Fatal(err)
				}
			}
			if err := e.Update(walker, walk, nil); err != nil { // unchanged
				t.Fatal(err)
			}
			for i := 0; i < 5; i++ {
				moved := append([]geom.Point(nil), users...)
				moved[1].Y += 0.01 * float64(i+1)
				if err := e.Submit(submitter, moved, nil); err != nil {
					t.Fatal(err)
				}
			}
			e.quiesce(t)

			c := e.Counters()
			full, partial, kept := c.Plans[core.IncFull], c.Plans[core.IncPartial], c.Plans[core.IncKept]
			t.Logf("full=%d partial=%d kept=%d", full, partial, kept)
			if sum, want := full+partial+kept, uint64(e.Updates(walker)+e.Updates(submitter)); sum != want {
				t.Fatalf("outcome counts sum to %d, want %d committed plans", sum, want)
			}
			if !tc.incremental {
				if partial != 0 || kept != 0 {
					t.Fatal("the non-incremental adapter counted a plan that was not full")
				}
				return
			}
			if partial == 0 {
				t.Fatal("small circle moves never counted a partial plan")
			}
			if kept == 0 {
				t.Fatal("an update at unchanged locations did not count kept")
			}
		})
	}
}
