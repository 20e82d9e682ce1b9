package engine

import (
	"errors"
	"math"
	"math/rand"
	"slices"
	"sync"
	"testing"
	"time"

	"mpn/internal/core"
	"mpn/internal/geom"
)

// testPlanner builds a real planner over a small clustered POI set so the
// engine is exercised against the genuine compute kernel.
func testPlanner(t testing.TB, n int, seed int64) *core.Planner {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	pois := make([]geom.Point, n)
	for i := range pois {
		pois[i] = geom.Pt(rng.Float64(), rng.Float64())
	}
	opts := core.DefaultOptions()
	opts.TileLimit = 4
	opts.Buffer = 10
	pl, err := core.NewPlanner(pois, opts)
	if err != nil {
		t.Fatal(err)
	}
	return pl
}

// nextNotification waits up to 10 s for the subscription's next
// notification.
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

func tilePlan(pl *core.Planner) PlanWSFunc {
	return PlannerKindWSFunc(pl, core.KindTiles, nil)
}

// quiesce blocks until no shard has queued or running work (test helper).
func (e *Engine) quiesce(t testing.TB) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		busy := false
		for _, sh := range e.shards {
			sh.mu.Lock()
			if len(sh.ready) > 0 {
				busy = true
			}
			for _, st := range sh.groups {
				st.mu.Lock()
				if st.queued || st.running || st.pending != nil {
					busy = true
				}
				st.mu.Unlock()
			}
			sh.mu.Unlock()
		}
		if !busy {
			return
		}
		if time.Now().After(deadline) {
			t.Fatal("engine did not quiesce")
		}
		time.Sleep(time.Millisecond)
	}
}

func TestRegisterAndAccessors(t *testing.T) {
	e := NewWS(tilePlan(testPlanner(t, 400, 1)), Options{Shards: 4})
	defer e.Close()
	users := []geom.Point{geom.Pt(0.2, 0.2), geom.Pt(0.3, 0.25), geom.Pt(0.25, 0.3)}
	id, err := e.Register(users, nil)
	if err != nil {
		t.Fatal(err)
	}
	if e.NumGroups() != 1 || e.Size(id) != 3 || e.Updates(id) != 1 {
		t.Fatalf("groups=%d size=%d updates=%d", e.NumGroups(), e.Size(id), e.Updates(id))
	}
	if e.Meeting(id) == (geom.Point{}) {
		t.Fatal("zero meeting point")
	}
	regions := e.Regions(id)
	if len(regions) != 3 {
		t.Fatalf("regions=%d", len(regions))
	}
	for i, u := range users {
		if !regions[i].Contains(u) {
			t.Fatalf("region %d misses its user", i)
		}
		if e.NeedsUpdate(id, i, u) {
			t.Fatalf("in-region location %d flagged", i)
		}
	}
	if !e.NeedsUpdate(id, 99, users[0]) || !e.NeedsUpdate(id, -1, users[0]) {
		t.Fatal("out-of-range index must be conservative")
	}
	if !e.NeedsUpdate(GroupID(999), 0, users[0]) {
		t.Fatal("unknown group must be conservative")
	}
	if s := e.Stats(id); s.GNNCalls == 0 {
		t.Fatal("stats not recorded")
	}
}

func TestRegisterErrors(t *testing.T) {
	e := NewWS(tilePlan(testPlanner(t, 100, 2)), Options{Shards: 2})
	defer e.Close()
	if _, err := e.Register(nil, nil); !errors.Is(err, ErrNoUsers) {
		t.Fatalf("want ErrNoUsers, got %v", err)
	}
	if err := e.Submit(GroupID(42), []geom.Point{geom.Pt(0.5, 0.5)}, nil); !errors.Is(err, ErrUnknownGroup) {
		t.Fatalf("want ErrUnknownGroup, got %v", err)
	}
	id, err := e.Register([]geom.Point{geom.Pt(0.4, 0.4), geom.Pt(0.5, 0.5)}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Submit(id, []geom.Point{geom.Pt(0.4, 0.4)}, nil); err == nil {
		t.Fatal("size mismatch accepted")
	}
	if err := e.Update(id, []geom.Point{geom.Pt(0.4, 0.4)}, nil); err == nil {
		t.Fatal("size mismatch accepted by Update")
	}

	// A non-finite coordinate is refused at every entry point and leaves
	// the group's plan as it was.
	meeting, updates := e.Meeting(id), e.Updates(id)
	for _, bad := range []geom.Point{
		geom.Pt(math.NaN(), 0.5), geom.Pt(0.5, math.NaN()),
		geom.Pt(math.Inf(1), 0.5), geom.Pt(0.5, math.Inf(-1)),
	} {
		users := []geom.Point{geom.Pt(0.4, 0.4), bad}
		if _, err := e.RegisterTag(users, nil, "tag"); !errors.Is(err, errNonFinite) {
			t.Fatalf("RegisterTag(%v): want errNonFinite, got %v", bad, err)
		}
		if err := e.SubmitTag(id, users, nil, "tag"); !errors.Is(err, errNonFinite) {
			t.Fatalf("SubmitTag(%v): want errNonFinite, got %v", bad, err)
		}
		if err := e.Update(id, users, nil); !errors.Is(err, errNonFinite) {
			t.Fatalf("Update(%v): want errNonFinite, got %v", bad, err)
		}
	}
	e.quiesce(t)
	if e.NumGroups() != 1 || e.Meeting(id) != meeting || e.Updates(id) != updates {
		t.Fatalf("refused locations changed state: groups=%d meeting=%v updates=%d",
			e.NumGroups(), e.Meeting(id), e.Updates(id))
	}
}

func TestSubmitNotifies(t *testing.T) {
	e := NewWS(tilePlan(testPlanner(t, 400, 3)), Options{Shards: 4, Workers: 2})
	defer e.Close()
	sub := e.Subscribe(64)
	users := []geom.Point{geom.Pt(0.3, 0.3), geom.Pt(0.35, 0.32)}
	id, err := e.Register(users, nil)
	if err != nil {
		t.Fatal(err)
	}
	first := <-sub.C
	if first.Group != id || first.Seq != 1 || !first.Changed {
		t.Fatalf("bad registration notification %+v", first)
	}
	moved := []geom.Point{geom.Pt(0.7, 0.7), geom.Pt(0.72, 0.68)}
	if err := e.Submit(id, moved, nil); err != nil {
		t.Fatal(err)
	}
	select {
	case n := <-sub.C:
		if n.Group != id || n.Seq != 2 {
			t.Fatalf("bad notification %+v", n)
		}
		if len(n.Regions) != 2 || !n.Regions[0].Contains(moved[0]) || !n.Regions[1].Contains(moved[1]) {
			t.Fatal("notification regions do not cover the submitted locations")
		}
	case <-time.After(10 * time.Second):
		t.Fatal("no notification")
	}
	if e.Updates(id) != 2 {
		t.Fatalf("updates=%d", e.Updates(id))
	}
}

// TestCoalescing gates the planner so a burst of submissions piles up
// behind one running recomputation; the burst must collapse into a single
// extra recomputation covering all of it.
func TestCoalescing(t *testing.T) {
	pl := testPlanner(t, 300, 4)
	inner := tilePlan(pl)
	gate := make(chan struct{})
	started := make(chan struct{}, 16)
	var gating sync.Mutex
	gateOn := false
	plan := func(ws *core.Workspace, users []geom.Point, dirs []core.Direction) (geom.Point, []core.SafeRegion, core.Stats, error) {
		gating.Lock()
		g := gateOn
		gating.Unlock()
		if g {
			started <- struct{}{}
			<-gate
		}
		return inner(ws, users, dirs)
	}
	e := NewWS(plan, Options{Shards: 1, Workers: 1})
	defer e.Close()
	users := []geom.Point{geom.Pt(0.4, 0.4), geom.Pt(0.45, 0.42)}
	id, err := e.Register(users, nil) // gate off: registration is instant
	if err != nil {
		t.Fatal(err)
	}
	sub := e.Subscribe(64)
	gating.Lock()
	gateOn = true
	gating.Unlock()

	// First submission occupies the single worker...
	if err := e.Submit(id, []geom.Point{geom.Pt(0.5, 0.5), geom.Pt(0.52, 0.5)}, nil); err != nil {
		t.Fatal(err)
	}
	<-started // worker is now blocked inside the planner
	// ...and a burst of 9 more lands while it runs.
	const burst = 9
	final := []geom.Point{geom.Pt(0.6, 0.6), geom.Pt(0.62, 0.61)}
	for i := 0; i < burst; i++ {
		loc := final
		if i < burst-1 {
			loc = []geom.Point{geom.Pt(0.5+float64(i)*0.01, 0.5), geom.Pt(0.52, 0.5)}
		}
		if err := e.Submit(id, loc, nil); err != nil {
			t.Fatal(err)
		}
	}
	gating.Lock()
	gateOn = false
	gating.Unlock()
	close(gate)

	n1 := <-sub.C
	if n1.Seq != 2 || n1.Coalesced != 1 {
		t.Fatalf("first recompute: %+v", n1)
	}
	n2 := <-sub.C
	if n2.Seq != 3 || n2.Coalesced != burst {
		t.Fatalf("burst did not coalesce: seq=%d coalesced=%d", n2.Seq, n2.Coalesced)
	}
	if !n2.Regions[0].Contains(final[0]) || !n2.Regions[1].Contains(final[1]) {
		t.Fatal("coalesced recompute did not use the latest locations")
	}
	select {
	case n := <-sub.C:
		t.Fatalf("unexpected extra notification %+v", n)
	case <-time.After(50 * time.Millisecond):
	}
	if e.Updates(id) != 3 {
		t.Fatalf("updates=%d want 3", e.Updates(id))
	}
}

// TestShardContention storms many groups from many goroutines and checks
// that the final submission for every group is eventually reflected —
// coalescing may skip intermediates but must never lose the last word.
func TestShardContention(t *testing.T) {
	pl := testPlanner(t, 500, 5)
	e := NewWS(tilePlan(pl), Options{Shards: 8, Workers: 2})
	defer e.Close()

	const groups, writers, rounds = 40, 8, 10
	ids := make([]GroupID, groups)
	finals := make([][]geom.Point, groups)
	for g := range ids {
		base := geom.Pt(0.1+0.8*float64(g)/groups, 0.5)
		id, err := e.Register([]geom.Point{base, geom.Pt(base.X+0.02, 0.52)}, nil)
		if err != nil {
			t.Fatal(err)
		}
		ids[g] = id
	}
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for r := 0; r < rounds; r++ {
				for g := 0; g < groups; g++ {
					u := []geom.Point{
						geom.Pt(rng.Float64(), rng.Float64()),
						geom.Pt(rng.Float64(), rng.Float64()),
					}
					if err := e.Submit(ids[g], u, nil); err != nil {
						t.Error(err)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	// One deterministic final submission per group.
	for g := range ids {
		finals[g] = []geom.Point{
			geom.Pt(0.2+0.6*float64(g)/groups, 0.3),
			geom.Pt(0.2+0.6*float64(g)/groups, 0.34),
		}
		if err := e.Submit(ids[g], finals[g], nil); err != nil {
			t.Fatal(err)
		}
	}
	e.quiesce(t)
	for g, id := range ids {
		regions := e.Regions(id)
		for i, u := range finals[g] {
			if !regions[i].Contains(u) {
				t.Fatalf("group %d: final location %d not inside its region", g, i)
			}
		}
	}
}

// TestUpdateSupersedesQueuedSubmit: a synchronous Update discards an
// older snapshot that was already queued when it began — the Update's
// locations are newer — so stale locations can never overwrite the final
// state. A gate keeps the single worker busy so the older submission
// stays queued for the duration.
func TestUpdateSupersedesQueuedSubmit(t *testing.T) {
	pl := testPlanner(t, 300, 11)
	inner := tilePlan(pl)
	gate := make(chan struct{})
	started := make(chan struct{}, 4)
	var gating sync.Mutex
	gateOn := false
	plan := func(ws *core.Workspace, users []geom.Point, dirs []core.Direction) (geom.Point, []core.SafeRegion, core.Stats, error) {
		gating.Lock()
		g := gateOn
		gating.Unlock()
		if g {
			started <- struct{}{}
			<-gate
		}
		return inner(ws, users, dirs)
	}
	e := NewWS(plan, Options{Shards: 1, Workers: 1})
	defer e.Close()
	decoy, err := e.Register([]geom.Point{geom.Pt(0.9, 0.9), geom.Pt(0.92, 0.9)}, nil)
	if err != nil {
		t.Fatal(err)
	}
	id, err := e.Register([]geom.Point{geom.Pt(0.4, 0.4), geom.Pt(0.42, 0.4)}, nil)
	if err != nil {
		t.Fatal(err)
	}
	gating.Lock()
	gateOn = true
	gating.Unlock()
	// Occupy the worker with the decoy group, then queue an old snapshot
	// for the group under test.
	if err := e.Submit(decoy, []geom.Point{geom.Pt(0.9, 0.9), geom.Pt(0.92, 0.9)}, nil); err != nil {
		t.Fatal(err)
	}
	<-started
	old := []geom.Point{geom.Pt(0.2, 0.2), geom.Pt(0.22, 0.2)}
	if err := e.Submit(id, old, nil); err != nil {
		t.Fatal(err)
	}
	gating.Lock()
	gateOn = false
	gating.Unlock()
	// The synchronous Update is newer than the queued snapshot.
	fresh := []geom.Point{geom.Pt(0.7, 0.7), geom.Pt(0.72, 0.7)}
	if err := e.Update(id, fresh, nil); err != nil {
		t.Fatal(err)
	}
	close(gate)
	e.quiesce(t)
	regions := e.Regions(id)
	for i, u := range fresh {
		if !regions[i].Contains(u) {
			t.Fatalf("stale queued snapshot overwrote the synchronous update (region %d)", i)
		}
	}
	if e.Updates(id) != 2 {
		t.Fatalf("updates=%d want 2 (registration + sync update; stale submit dropped)", e.Updates(id))
	}
}

func TestSubmitTagOnNotification(t *testing.T) {
	e := NewWS(tilePlan(testPlanner(t, 300, 12)), Options{Shards: 1})
	defer e.Close()
	users := []geom.Point{geom.Pt(0.4, 0.4), geom.Pt(0.44, 0.4)}
	sub := e.Subscribe(8)
	id, err := e.RegisterTag(users, nil, "reg-tag")
	if err != nil {
		t.Fatal(err)
	}
	if n := <-sub.C; n.Tag != "reg-tag" {
		t.Fatalf("registration tag %v", n.Tag)
	}
	if err := e.SubmitTag(id, users, nil, "up-tag"); err != nil {
		t.Fatal(err)
	}
	select {
	case n := <-sub.C:
		if n.Tag != "up-tag" {
			t.Fatalf("submission tag %v", n.Tag)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("no notification")
	}
}

func TestPlanErrorNotification(t *testing.T) {
	pl := testPlanner(t, 300, 6)
	inner := tilePlan(pl)
	fail := false
	var mu sync.Mutex
	plan := func(ws *core.Workspace, users []geom.Point, dirs []core.Direction) (geom.Point, []core.SafeRegion, core.Stats, error) {
		mu.Lock()
		f := fail
		mu.Unlock()
		if f {
			return geom.Point{}, nil, core.Stats{}, errors.New("boom")
		}
		return inner(ws, users, dirs)
	}
	e := NewWS(plan, Options{Shards: 1})
	defer e.Close()
	users := []geom.Point{geom.Pt(0.4, 0.4), geom.Pt(0.44, 0.4)}
	id, err := e.Register(users, nil)
	if err != nil {
		t.Fatal(err)
	}
	meeting := e.Meeting(id)
	sub := e.Subscribe(8)
	mu.Lock()
	fail = true
	mu.Unlock()
	if err := e.Submit(id, users, nil); err != nil {
		t.Fatal(err)
	}
	select {
	case n := <-sub.C:
		if n.Err == nil {
			t.Fatalf("want error notification, got %+v", n)
		}
		if n.Meeting != meeting {
			t.Fatal("error notification should carry the previous plan")
		}
	case <-time.After(10 * time.Second):
		t.Fatal("no notification")
	}
	if e.Updates(id) != 1 {
		t.Fatal("failed recompute must not advance Seq")
	}
	if e.Meeting(id) != meeting {
		t.Fatal("failed recompute must keep the previous plan")
	}
}

func TestUnregister(t *testing.T) {
	e := NewWS(tilePlan(testPlanner(t, 200, 7)), Options{Shards: 2})
	defer e.Close()
	users := []geom.Point{geom.Pt(0.5, 0.5)}
	id, err := e.Register(users, nil)
	if err != nil {
		t.Fatal(err)
	}
	e.Unregister(id)
	if e.NumGroups() != 0 {
		t.Fatal("group not removed")
	}
	if err := e.Submit(id, users, nil); !errors.Is(err, ErrUnknownGroup) {
		t.Fatalf("want ErrUnknownGroup, got %v", err)
	}
	if err := e.Update(id, users, nil); !errors.Is(err, ErrUnknownGroup) {
		t.Fatalf("want ErrUnknownGroup, got %v", err)
	}
}

func TestClose(t *testing.T) {
	e := NewWS(tilePlan(testPlanner(t, 200, 8)), Options{Shards: 2})
	sub := e.Subscribe(8)
	users := []geom.Point{geom.Pt(0.5, 0.5)}
	id, err := e.Register(users, nil)
	if err != nil {
		t.Fatal(err)
	}
	<-sub.C // drain the registration notification
	e.Close()
	e.Close() // idempotent
	if _, ok := <-sub.C; ok {
		t.Fatal("subscription channel not closed")
	}
	if err := e.Submit(id, users, nil); !errors.Is(err, ErrClosed) {
		t.Fatalf("want ErrClosed, got %v", err)
	}
	if _, err := e.Register(users, nil); !errors.Is(err, ErrClosed) {
		t.Fatalf("want ErrClosed, got %v", err)
	}
	// Subscribing after close yields an already-closed channel.
	if _, ok := <-e.Subscribe(1).C; ok {
		t.Fatal("post-close subscription not closed")
	}
}

func TestSubscriptionDrop(t *testing.T) {
	e := NewWS(tilePlan(testPlanner(t, 200, 9)), Options{Shards: 1})
	defer e.Close()
	sub := e.Subscribe(1)
	users := []geom.Point{geom.Pt(0.5, 0.5), geom.Pt(0.52, 0.5)}
	id, err := e.Register(users, nil) // fills the buffer of 1
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := e.Update(id, users, nil); err != nil { // sync: emits immediately
			t.Fatal(err)
		}
	}
	if sub.Dropped() != 3 {
		t.Fatalf("dropped=%d want 3", sub.Dropped())
	}
	sub.Close()
	if err := e.Update(id, users, nil); err != nil {
		t.Fatal(err)
	}
}

// TestObserveRunsOnCommitter: an observer runs on the goroutine that
// committed the plan, once the engine's locks are released (it reads the
// group back from inside the call), and in Seq order for a group a worker
// plans.
func TestObserveRunsOnCommitter(t *testing.T) {
	e := NewWS(tilePlan(testPlanner(t, 200, 9)), Options{Shards: 1, Workers: 1})
	defer e.Close()
	var (
		mu   sync.Mutex
		seqs []uint64
	)
	got := make(chan struct{}, 16)
	e.Observe(func(n Notification) {
		if e.Updates(n.Group) != int(n.Seq) { // takes the shard and group locks
			t.Errorf("observer saw Seq %d, the group has %d plans", n.Seq, e.Updates(n.Group))
		}
		mu.Lock()
		seqs = append(seqs, n.Seq)
		mu.Unlock()
		got <- struct{}{}
	})
	users := []geom.Point{geom.Pt(0.5, 0.5), geom.Pt(0.52, 0.5)}
	id, err := e.Register(users, nil)
	if err != nil {
		t.Fatal(err)
	}
	select {
	case <-got: // Register returned after its observer call
	default:
		t.Fatal("the registration plan was not observed before Register returned")
	}
	for i := 1; i <= 3; i++ {
		if err := e.Submit(id, []geom.Point{geom.Pt(0.5+0.1*float64(i), 0.5), geom.Pt(0.52, 0.5)}, nil); err != nil {
			t.Fatal(err)
		}
		<-got
	}
	mu.Lock()
	if want := []uint64{1, 2, 3, 4}; !slices.Equal(seqs, want) {
		t.Fatalf("observed Seqs %v, want %v", seqs, want)
	}
	mu.Unlock()
}
