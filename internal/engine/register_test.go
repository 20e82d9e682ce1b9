package engine

import (
	"errors"
	"reflect"
	"sync/atomic"
	"testing"
	"time"

	"mpn/internal/core"
	"mpn/internal/geom"
)

// wedgeWorker registers a decoy group and parks the only worker of e
// inside the decoy's next plan, so groups registered after it stay
// queued until p.release closes.
func wedgeWorker(t *testing.T, e *Engine, p *stubPlan) {
	t.Helper()
	decoy, err := e.Register(threeUsers(), nil)
	if err != nil {
		t.Fatal(err)
	}
	p.blocking.Store(true)
	if err := e.Submit(decoy, threeUsers(), nil); err != nil {
		t.Fatal(err)
	}
	select {
	case <-p.entered:
	case <-time.After(10 * time.Second):
		t.Fatal("the decoy's plan never reached the worker")
	}
	p.blocking.Store(false)
}

// TestRegisterAsyncBeforeFirstCommit: a group registered with its first
// plan queued reads as unplanned until a worker commits that plan (Size
// alone is set), and the commit is its Seq 1.
func TestRegisterAsyncBeforeFirstCommit(t *testing.T) {
	p := newStubPlan()
	e := NewWS(p.fn, Options{Shards: 1, Workers: 1})
	defer e.Close()
	wedgeWorker(t, e, p)
	sub := e.Subscribe(8)
	users := threeUsers()
	id, err := e.RegisterAsync(users, nil, "g")
	if err != nil {
		t.Fatal(err)
	}
	if m := e.Meeting(id); m != (geom.Point{}) {
		t.Fatalf("Meeting %v before the first plan, want zero", m)
	}
	if r := e.Regions(id); r != nil {
		t.Fatalf("Regions %v before the first plan, want nil", r)
	}
	if r := e.Region(id, 0); !reflect.DeepEqual(r, core.SafeRegion{}) {
		t.Fatalf("Region %v before the first plan, want zero", r)
	}
	if s := e.Stats(id); s != (core.Stats{}) {
		t.Fatalf("Stats %+v before the first plan, want zero", s)
	}
	if n := e.Updates(id); n != 0 {
		t.Fatalf("Updates %d before the first plan, want 0", n)
	}
	if !e.NeedsUpdate(id, 0, users[0]) {
		t.Fatal("NeedsUpdate false before the first plan")
	}
	if n := e.Size(id); n != len(users) {
		t.Fatalf("Size %d, want %d", n, len(users))
	}

	close(p.release)
	n := nextNotification(t, sub)
	for n.Group != id {
		n = nextNotification(t, sub) // the decoy's plan
	}
	if n.Seq != 1 || n.Err != nil || !n.Changed || n.Coalesced != 1 || n.Tag != "g" || len(n.Regions) != len(users) {
		t.Fatalf("first notification %+v, want Seq 1 changed, covering one submission, tag g", n)
	}
	if e.Updates(id) != 1 || e.Meeting(id) != n.Meeting {
		t.Fatalf("after the first commit: Updates %d, Meeting %v; want 1, %v", e.Updates(id), e.Meeting(id), n.Meeting)
	}
}

// TestRegisterAsyncCommitsOnce: each group's first plan is one commit —
// one journal record and one Seq-1 notification carrying the
// registration's tag.
func TestRegisterAsyncCommitsOnce(t *testing.T) {
	p := newStubPlan()
	close(p.release)
	j := &recordingJournal{}
	e := NewWS(p.fn, Options{Shards: 2, Workers: 1, Journal: j})
	defer e.Close()
	sub := e.Subscribe(64)
	const groups = 16
	for g := range groups {
		if _, err := e.RegisterAsync(threeUsers(), nil, g); err != nil {
			t.Fatal(err)
		}
	}
	e.quiesce(t)
	notified := map[any]int{}
	for range groups {
		n := nextNotification(t, sub)
		if n.Seq != 1 || n.Err != nil {
			t.Fatalf("notification %+v, want a Seq-1 plan", n)
		}
		notified[n.Tag]++
	}
	select {
	case n := <-sub.C:
		t.Fatalf("extra notification %+v", n)
	default:
	}
	journaled := map[any]int{}
	j.mu.Lock()
	for _, c := range j.commits {
		journaled[c.tag]++
	}
	removed := len(j.removed)
	j.mu.Unlock()
	for g := range groups {
		if notified[g] != 1 || journaled[g] != 1 {
			t.Fatalf("group %d: %d notifications and %d journal records, want one of each", g, notified[g], journaled[g])
		}
	}
	if removed != 0 {
		t.Fatalf("%d removals journaled, want none", removed)
	}
	var plans uint64
	for _, n := range e.Counters().Plans {
		plans += n
	}
	if plans != groups {
		t.Fatalf("%d plans counted, want %d", plans, groups)
	}
}

// TestUnregisterBeforeFirstCommit unregisters two groups whose first
// plans have not committed — one being planned, one still queued: neither
// plan commits, and nothing is journaled or emitted for either.
func TestUnregisterBeforeFirstCommit(t *testing.T) {
	p := newStubPlan()
	j := &recordingJournal{}
	e := NewWS(p.fn, Options{Shards: 1, Workers: 1, Journal: j})
	defer e.Close()
	sub := e.Subscribe(8)
	p.blocking.Store(true)
	planning, err := e.RegisterAsync(threeUsers(), nil, "planning")
	if err != nil {
		t.Fatal(err)
	}
	select {
	case <-p.entered:
	case <-time.After(10 * time.Second):
		t.Fatal("the first plan never reached the worker")
	}
	queued, err := e.RegisterAsync(threeUsers(), nil, "queued")
	if err != nil {
		t.Fatal(err)
	}
	e.Unregister(queued)
	if q := e.Counters().Queued; q != 0 {
		t.Fatalf("%d groups left in the run queue", q)
	}
	// Unregister flags the group removed, then waits for its plan in
	// flight: release the plan once the flag is set.
	st := e.lookup(planning)
	done := make(chan struct{})
	go func() {
		e.Unregister(planning)
		close(done)
	}()
	for removed := false; !removed; time.Sleep(time.Millisecond) {
		st.mu.Lock()
		removed = st.removed
		st.mu.Unlock()
	}
	close(p.release)
	<-done
	e.quiesce(t)

	select {
	case n := <-sub.C:
		t.Fatalf("notification %+v for an unregistered group", n)
	default:
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if len(j.commits) != 0 || len(j.removed) != 0 {
		t.Fatalf("journaled %d commits and removals %v, want none", len(j.commits), j.removed)
	}
	if c := e.Counters(); c.Plans != [core.IncKept + 1]uint64{} {
		t.Fatalf("plans %v committed, want none", c.Plans)
	}
}

// TestRegisterAsyncPlanError: a planner error on the first plan reaches
// the observers as one error notification with Seq 0 and journals
// nothing; the group stays registered, and its next submission plans
// Seq 1 from scratch.
func TestRegisterAsyncPlanError(t *testing.T) {
	f := &fakeReplan{}
	var fail atomic.Bool
	fail.Store(true)
	replan := func(ws *core.Workspace, st *core.PlanState, users []geom.Point, dirs []core.Direction) (geom.Point, []core.SafeRegion, core.Stats, core.IncOutcome, error) {
		if fail.Load() {
			return geom.Point{}, nil, core.Stats{}, core.IncFull, errors.New("boom")
		}
		return f.fn(ws, st, users, dirs)
	}
	j := &recordingJournal{}
	e := NewWS(nil, Options{Shards: 1, Workers: 1, Replan: replan, Journal: j})
	defer e.Close()
	sub := e.Subscribe(8)
	users := threeUsers()
	id, err := e.RegisterAsync(users, nil, "reg")
	if err != nil {
		t.Fatal(err)
	}
	n := nextNotification(t, sub)
	if n.Err == nil || n.Seq != 0 || n.Group != id || n.Tag != "reg" || n.Regions != nil {
		t.Fatalf("notification %+v, want one error notification with Seq 0", n)
	}
	e.quiesce(t)
	select {
	case n := <-sub.C:
		t.Fatalf("extra notification %+v", n)
	default:
	}
	if e.Updates(id) != 0 || e.Size(id) != len(users) {
		t.Fatalf("after the failed first plan: Updates %d, Size %d; want 0, %d", e.Updates(id), e.Size(id), len(users))
	}

	fail.Store(false)
	if err := e.SubmitTag(id, users, nil, "retry"); err != nil {
		t.Fatal(err)
	}
	n = nextNotification(t, sub)
	if n.Err != nil || n.Seq != 1 || n.Outcome != core.IncFull || n.Tag != "retry" {
		t.Fatalf("notification %+v, want a full Seq-1 plan", n)
	}
	if f.calls() != 1 || f.valid[0] {
		t.Fatalf("%d replanner calls, state valid at entry %v; want one call from an empty state", f.calls(), f.valid)
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if len(j.commits) != 1 || j.commits[0].tag != "retry" {
		t.Fatalf("journal %+v, want the retry's commit alone", j.commits)
	}
}

// TestSubmitCoalescesIntoFirstPlan: a submission that arrives while the
// group's first plan is still queued joins it — one full commit covering
// both, planned from the newer locations and carrying the newer tag.
func TestSubmitCoalescesIntoFirstPlan(t *testing.T) {
	p := newStubPlan()
	j := &recordingJournal{}
	e := NewWS(p.fn, Options{Shards: 1, Workers: 1, Journal: j})
	defer e.Close()
	wedgeWorker(t, e, p)
	sub := e.Subscribe(8)
	before := e.Counters()
	id, err := e.RegisterAsync(threeUsers(), nil, "reg")
	if err != nil {
		t.Fatal(err)
	}
	moved := []geom.Point{geom.Pt(0.6, 0.6), geom.Pt(0.7, 0.65), geom.Pt(0.65, 0.7)}
	if err := e.SubmitTag(id, moved, nil, "early"); err != nil {
		t.Fatal(err)
	}
	close(p.release)
	n := nextNotification(t, sub)
	for n.Group != id {
		n = nextNotification(t, sub) // the decoy's plan
	}
	want := geom.Pt(0.65, 0.65) // the stub's centroid of moved
	if n.Seq != 1 || n.Coalesced != 2 || n.Outcome != core.IncFull || n.Tag != "early" ||
		n.Meeting.Dist(want) > 1e-12 {
		t.Fatalf("first notification %+v, want Seq 1 covering 2 submissions, planned from the early report", n)
	}
	e.quiesce(t)
	after := e.Counters()
	// The decoy's plan is one more full commit.
	if full := after.Plans[core.IncFull] - before.Plans[core.IncFull]; full != 2 {
		t.Fatalf("%d full plans committed, want the decoy's and one for the group", full)
	}
	if c := after.Coalesced - before.Coalesced; c != 1 {
		t.Fatalf("%d submissions coalesced, want 1", c)
	}
	if got := j.commitsExcept(nil); len(got) != 1 || got[0].tag != "early" {
		t.Fatalf("journal %+v, want one commit, tagged early", got)
	}
}
