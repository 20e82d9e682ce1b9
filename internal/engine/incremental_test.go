package engine

import (
	"errors"
	"reflect"
	"sync"
	"testing"

	"mpn/internal/core"
	"mpn/internal/geom"
	"mpn/internal/gnn"
	"mpn/internal/rtree"
)

// fakeReplan is a scripted ReplanWSFunc that records, per call, which
// PlanState it was handed and whether that state was valid at entry, so
// the engine's state threading (one retained state per group, serialized
// access) can be asserted exactly without
// geometric noise. Semantics mirror the real replanners: invalid state →
// full; any member outside her region → full (regions here are coarse
// circles, so this path stands in for partial too); otherwise kept.
type fakeReplan struct {
	mu      sync.Mutex
	states  []*core.PlanState
	valid   []bool // state validity at call entry
	blockOn int    // 1-based call number to park on (0 = never)
	entered chan struct{}
	release chan struct{}
}

func (f *fakeReplan) fn(_ *core.Workspace, st *core.PlanState, users []geom.Point, _ []core.Direction) (geom.Point, []core.SafeRegion, core.Stats, core.IncOutcome, error) {
	f.mu.Lock()
	f.states = append(f.states, st)
	f.valid = append(f.valid, st.Valid())
	call := len(f.states)
	f.mu.Unlock()
	if f.blockOn == call {
		f.entered <- struct{}{}
		<-f.release
	}
	if st.Valid() && len(st.Regions()) == len(users) {
		kept := true
		for i, u := range users {
			if !st.Regions()[i].Contains(u) {
				kept = false
				break
			}
		}
		if kept {
			return st.Regions()[0].Circle.C, st.Regions(), core.Stats{}, core.IncKept, nil
		}
	}
	regions := make([]core.SafeRegion, len(users))
	for i, u := range users {
		regions[i] = core.CircleRegion(u, 0.2)
	}
	plan := core.Plan{
		Best:    gnn.Result{Item: rtree.Item{P: users[0], ID: 1}},
		Regions: regions,
	}
	st.Record(plan)
	return users[0], regions, core.Stats{}, core.IncFull, nil
}

func (f *fakeReplan) calls() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return len(f.states)
}

// TestReplanStateThreading drives an incremental engine over a scripted
// replanner and checks the plumbing the real planners rely on: each
// group gets exactly one retained PlanState across registration, updates
// and worker recomputations, synchronous or asynchronous; nothing but the
// replanner itself invalidates it; distinct groups never share state;
// and the outcome reaches subscribers on the notification.
func TestReplanStateThreading(t *testing.T) {
	f := &fakeReplan{}
	e := NewWS(nil, Options{Shards: 2, Workers: 1, Replan: f.fn})
	defer e.Close()
	sub := e.Subscribe(64)

	users := []geom.Point{geom.Pt(0.5, 0.5), geom.Pt(0.52, 0.5)}
	id, err := e.Register(users, nil)
	if err != nil {
		t.Fatal(err)
	}
	if n := <-sub.C; n.Seq != 1 || n.Outcome != core.IncFull {
		t.Fatalf("registration notification: %+v", n)
	}

	// Same locations: the retained state satisfies the update.
	if err := e.Update(id, users, nil); err != nil {
		t.Fatal(err)
	}
	if n := <-sub.C; n.Outcome != core.IncKept {
		t.Fatalf("unchanged update: outcome %v", n.Outcome)
	}

	// An escape replans fully — decided by the replanner over the still
	// valid retained state, not by the engine.
	moved := []geom.Point{geom.Pt(0.9, 0.9), geom.Pt(0.92, 0.9)}
	if err := e.Update(id, moved, nil); err != nil {
		t.Fatal(err)
	}
	if n := <-sub.C; n.Outcome != core.IncFull {
		t.Fatalf("escape update: outcome %v", n.Outcome)
	}

	// The same through the worker pool.
	if err := e.Submit(id, users, nil); err != nil {
		t.Fatal(err)
	}
	if n := <-sub.C; n.Outcome != core.IncFull {
		t.Fatalf("escape submit: outcome %v", n.Outcome)
	}
	e.quiesce(t)

	// A second group must get its own state.
	id2, err := e.Register([]geom.Point{geom.Pt(0.1, 0.1)}, nil)
	if err != nil {
		t.Fatal(err)
	}
	<-sub.C
	if err := e.Update(id2, []geom.Point{geom.Pt(0.1, 0.1)}, nil); err != nil {
		t.Fatal(err)
	}
	if n := <-sub.C; n.Outcome != core.IncKept {
		t.Fatalf("second group unchanged update: outcome %v", n.Outcome)
	}

	f.mu.Lock()
	defer f.mu.Unlock()
	if len(f.states) != 6 {
		t.Fatalf("replanner saw %d calls, want 6", len(f.states))
	}
	wantValid := []bool{
		false, // registration: zero state
		true,  // kept update
		true,  // escape update: the state is handed over as it stands
		true,  // escape submit likewise
		false, // second group's registration: fresh zero state
		true,  // second group's kept update
	}
	for i, v := range wantValid {
		if f.valid[i] != v {
			t.Fatalf("call %d: state valid=%v want %v", i+1, f.valid[i], v)
		}
	}
	// Registration seeds the group's own state (calls 1 and 5); every
	// later call for a group must hit that same retained state.
	if f.states[1] != f.states[0] || f.states[2] != f.states[0] || f.states[3] != f.states[0] || f.states[5] != f.states[4] {
		t.Fatal("updates for one group used different PlanStates")
	}
	if f.states[4] == f.states[0] {
		t.Fatal("second group shares the first group's PlanState")
	}
}

// TestIncrementalCoalescedInvalidation parks the single worker inside a
// recomputation while a burst lands, and checks that the burst costs
// exactly one more replanner call, over the newest snapshot — whose
// escape invalidates the retained plan.
func TestIncrementalCoalescedInvalidation(t *testing.T) {
	f := &fakeReplan{blockOn: 2, entered: make(chan struct{}, 1), release: make(chan struct{})}
	e := NewWS(nil, Options{Shards: 1, Workers: 1, Replan: f.fn})
	defer e.Close()
	sub := e.Subscribe(64)

	base := []geom.Point{geom.Pt(0.5, 0.5)}
	id, err := e.Register(base, nil)
	if err != nil {
		t.Fatal(err)
	}
	<-sub.C

	// Call 2 (async) parks the worker.
	if err := e.Submit(id, base, nil); err != nil {
		t.Fatal(err)
	}
	<-f.entered
	// Burst: a submit inside the retained region, then one outside it;
	// they coalesce into a single pending snapshot holding the escape.
	moved := []geom.Point{geom.Pt(0.9, 0.9)}
	if err := e.Submit(id, base, nil); err != nil {
		t.Fatal(err)
	}
	if err := e.Submit(id, moved, nil); err != nil {
		t.Fatal(err)
	}
	close(f.release)

	if n := <-sub.C; n.Seq != 2 || n.Coalesced != 1 || n.Outcome != core.IncKept {
		t.Fatalf("parked recompute: %+v", n)
	}
	n := <-sub.C
	if n.Seq != 3 || n.Coalesced != 2 {
		t.Fatalf("burst did not coalesce: %+v", n)
	}
	if n.Outcome != core.IncFull || n.Meeting != moved[0] {
		t.Fatalf("coalesced recompute did not run over the newest snapshot: %+v", n)
	}
	if c := f.calls(); c != 3 {
		t.Fatalf("replanner ran %d times, want 3", c)
	}
}

// TestIncrementalReportAfterUnregister: once a group is gone, late
// reports — sync and async — are refused, and the retained
// plan state has been dropped.
func TestIncrementalReportAfterUnregister(t *testing.T) {
	pl := testPlanner(t, 300, 21)
	e := NewWS(nil, Options{Shards: 2, Replan: PlannerKindIncFunc(pl, core.KindTiles, nil)})
	defer e.Close()
	users := []geom.Point{geom.Pt(0.5, 0.5), geom.Pt(0.52, 0.48)}
	id, err := e.Register(users, nil)
	if err != nil {
		t.Fatal(err)
	}
	st := e.lookup(id)
	e.Unregister(id)
	if err := e.Update(id, users, nil); !errors.Is(err, ErrUnknownGroup) {
		t.Fatalf("Update after Unregister: %v", err)
	}
	if err := e.Submit(id, users, nil); !errors.Is(err, ErrUnknownGroup) {
		t.Fatalf("Submit after Unregister: %v", err)
	}
	st.replanMu.Lock()
	valid := st.planState.Valid()
	st.replanMu.Unlock()
	if valid {
		t.Fatal("unregistered group still pins a retained plan")
	}
}

// TestIncrementalEngineEndToEnd exercises the real incremental planner
// through the engine: duplicate reports are kept, a whole-group teleport
// replans fully, and a single member's stride is served without touching
// the others' regions.
func TestIncrementalEngineEndToEnd(t *testing.T) {
	pl := testPlanner(t, 400, 22)
	e := NewWS(nil, Options{Shards: 1, Replan: PlannerKindIncFunc(pl, core.KindTiles, nil)})
	defer e.Close()
	sub := e.Subscribe(64)

	users := []geom.Point{geom.Pt(0.40, 0.40), geom.Pt(0.44, 0.42), geom.Pt(0.42, 0.45)}
	id, err := e.Register(users, nil)
	if err != nil {
		t.Fatal(err)
	}
	if n := <-sub.C; n.Outcome != core.IncFull {
		t.Fatalf("registration outcome %v", n.Outcome)
	}

	// Duplicate report.
	if err := e.Update(id, users, nil); err != nil {
		t.Fatal(err)
	}
	n := <-sub.C
	if n.Outcome != core.IncKept || n.Changed {
		t.Fatalf("duplicate report: %+v", n)
	}

	// Whole-group teleport: the optimum moves, plan replans fully.
	moved := []geom.Point{geom.Pt(0.80, 0.78), geom.Pt(0.84, 0.80), geom.Pt(0.82, 0.83)}
	if err := e.Update(id, moved, nil); err != nil {
		t.Fatal(err)
	}
	if n = <-sub.C; n.Outcome != core.IncFull {
		t.Fatalf("teleport outcome %v", n.Outcome)
	}
	for i, u := range moved {
		if !n.Regions[i].Contains(u) {
			t.Fatalf("teleport region %d misses its user", i)
		}
	}
	teleported := n.Regions
	prev := n.Regions

	// Single-member streams: walk user 0 outward until an update is
	// served partially, and check the clean members kept their regions,
	// Equal to the last notification's (nothing is re-shipped to them).
	step := moved
	sawPartial := false
	for i := 1; i <= 12 && !sawPartial; i++ {
		step = []geom.Point{
			geom.Pt(0.80-0.005*float64(i), 0.78-0.004*float64(i)),
			moved[1], moved[2],
		}
		if err := e.Update(id, step, nil); err != nil {
			t.Fatal(err)
		}
		n = <-sub.C
		switch n.Outcome {
		case core.IncPartial:
			sawPartial = true
			if !n.Regions[0].Contains(step[0]) {
				t.Fatal("partial regrow misses the reporting user")
			}
			for j, u := range step {
				if !teleported[j].Contains(u) {
					continue
				}
				if !reflect.DeepEqual(n.Regions[j], teleported[j]) {
					t.Fatalf("clean member %d's region changed on a partial update", j)
				}
				if !n.Regions[j].Equal(prev[j]) {
					t.Fatalf("clean member %d's region is not Equal to her last one on a partial update", j)
				}
			}
		case core.IncFull:
			teleported = n.Regions // churn: new baseline for the clean check
		}
		prev = n.Regions
	}
	if !sawPartial {
		t.Fatal("walking stream never produced a partial outcome")
	}
}
