package engine

import (
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"mpn/internal/core"
	"mpn/internal/faultinject"
	"mpn/internal/geom"
)

// stubPlan is a trivial planner for failure-semantics tests: one region
// per user, meeting at the centroid, optionally blocking inside the
// planner so a test can wedge a shard worker at will.
type stubPlan struct {
	blocking atomic.Bool
	entered  chan struct{} // one send per blocked call entering the planner
	release  chan struct{} // closed to let blocked calls finish
}

func newStubPlan() *stubPlan {
	return &stubPlan{entered: make(chan struct{}, 64), release: make(chan struct{})}
}

func (p *stubPlan) fn(_ *core.Workspace, users []geom.Point, dirs []core.Direction) (geom.Point, []core.SafeRegion, core.Stats, error) {
	if p.blocking.Load() {
		p.entered <- struct{}{}
		<-p.release
	}
	var cx, cy float64
	for _, u := range users {
		cx += u.X
		cy += u.Y
	}
	inv := 1 / float64(len(users))
	return geom.Pt(cx*inv, cy*inv), make([]core.SafeRegion, len(users)), core.Stats{}, nil
}

func threeUsers() []geom.Point {
	return []geom.Point{geom.Pt(0.2, 0.2), geom.Pt(0.3, 0.25), geom.Pt(0.25, 0.3)}
}

// TestRunQueueHoldsOnlyLiveGroups stalls the only worker inside a plan
// while submitters burst reports at every live group and the test
// goroutine registers and unregisters groups. The run queue never holds
// more entries than the shard has live groups (an unregistered group
// leaves it at once), and after the release each live group's newest
// snapshot is committed with no further submission.
func TestRunQueueHoldsOnlyLiveGroups(t *testing.T) {
	p := newStubPlan()
	e := NewWS(p.fn, Options{Shards: 1, Workers: 1})
	defer e.Close()

	// A group's submissions and its unregistration serialize on its mu,
	// so last is the snapshot the engine holds as newest.
	type group struct {
		mu   sync.Mutex
		id   GroupID
		last []geom.Point
		live bool
	}
	var (
		mu     sync.Mutex
		groups []*group
	)
	register := func() {
		id, err := e.Register(threeUsers(), nil)
		if err != nil {
			t.Fatal(err)
		}
		mu.Lock()
		groups = append(groups, &group{id: id, live: true})
		mu.Unlock()
	}
	for i := 0; i < 8; i++ {
		register()
	}

	// The worker's plan for group 0 is the first hit after arming; the
	// registrations below pass the failpoint.
	release := make(chan struct{})
	faultinject.Arm(faultinject.Script{faultinject.EnginePlan: func(hit uint64) faultinject.Effect {
		if hit == 1 {
			<-release
		}
		return faultinject.Effect{}
	}})
	defer faultinject.Disarm()
	if err := e.Submit(groups[0].id, threeUsers(), nil); err != nil {
		close(release)
		t.Fatal(err)
	}
	groups[0].last = threeUsers()
	for faultinject.Hits(faultinject.EnginePlan) < 1 {
		time.Sleep(time.Millisecond)
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	var bad atomic.Value
	var submitted atomic.Uint64
	stopped := false
	halt := func() { // stops the submitters, then the stall
		if !stopped {
			stopped = true
			close(stop)
			wg.Wait()
			close(release)
		}
	}
	defer halt()
	for w := 0; w < 3; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				mu.Lock()
				g := groups[(w+7*i)%len(groups)]
				mu.Unlock()
				users := []geom.Point{geom.Pt(float64(w), float64(i)), geom.Pt(0.5, 0.5), geom.Pt(0.1, 0.9)}
				g.mu.Lock()
				if g.live {
					if err := e.Submit(g.id, users, nil); err != nil {
						bad.Store(err)
					}
					g.last = users
				}
				g.mu.Unlock()
				submitted.Add(1)
			}
		}(w)
	}
	maxQueued := 0
	check := func() {
		// Unregistrations happen only on this goroutine and a stalled
		// worker pops nothing, so the groups read after the queue are at
		// least the groups live when the queue was read.
		q := e.Counters().Queued
		if n := e.NumGroups(); q > n {
			t.Fatalf("run queue holds %d entries for %d live groups", q, n)
		}
		maxQueued = max(maxQueued, q)
	}
	for i := 0; i < 200; i++ {
		// Let the submitters run between churn steps.
		for n := submitted.Load(); submitted.Load() < n+8; {
			runtime.Gosched()
		}
		register()
		check()
		mu.Lock()
		g := groups[1+(i*5)%(len(groups)-1)] // never group 0, whose plan is stalled
		mu.Unlock()
		g.mu.Lock()
		if g.live {
			e.Unregister(g.id)
			g.live = false
		}
		g.mu.Unlock()
		check()
	}
	halt()
	if err := bad.Load(); err != nil {
		t.Fatalf("Submit to a live group: %v", err)
	}
	if maxQueued < 2 {
		t.Fatalf("the stalled shard never queued two groups at once (max %d)", maxQueued)
	}
	e.quiesce(t)
	for _, g := range groups {
		if !g.live || g.last == nil {
			continue
		}
		want, _, _, _ := p.fn(nil, g.last, nil)
		if got := e.Meeting(g.id); got != want {
			t.Fatalf("group %d meets at %v, want %v from its newest snapshot", g.id, got, want)
		}
	}
}

// TestWorkerPanicIsolation injects a planner panic into a worker
// recomputation: the notification must carry a *PanicError and repeat
// the previous plan, and the worker pool must survive to serve the next
// submission.
func TestWorkerPanicIsolation(t *testing.T) {
	p := newStubPlan()
	e := NewWS(p.fn, Options{Shards: 1, Workers: 1})
	defer e.Close()
	id, err := e.Register(threeUsers(), nil)
	if err != nil {
		t.Fatal(err)
	}
	sub := e.Subscribe(64) // after Register: the first notification is the panic
	before := e.Meeting(id)

	faultinject.Arm(faultinject.Script{faultinject.EnginePlan: faultinject.PanicOn(1, "kaboom")})
	defer faultinject.Disarm()

	if err := e.Submit(id, threeUsers(), nil); err != nil {
		t.Fatal(err)
	}
	n := <-sub.C
	var pe *PanicError
	if !errors.As(n.Err, &pe) {
		t.Fatalf("notification Err = %v, want *PanicError", n.Err)
	}
	if pe.Value != "kaboom" {
		t.Fatalf("PanicError.Value = %v", pe.Value)
	}
	if len(pe.Stack) == 0 {
		t.Fatal("PanicError.Stack is empty")
	}
	if n.Seq != 1 {
		t.Fatalf("error notification Seq = %d, want 1 (repeat of last success)", n.Seq)
	}
	if n.Meeting != before {
		t.Fatalf("error notification Meeting = %v, want previous %v", n.Meeting, before)
	}

	// The shard's only worker recovered: the next submission must plan.
	moved := []geom.Point{geom.Pt(0.6, 0.6), geom.Pt(0.7, 0.65), geom.Pt(0.65, 0.7)}
	if err := e.Submit(id, moved, nil); err != nil {
		t.Fatal(err)
	}
	n = <-sub.C
	if n.Err != nil {
		t.Fatalf("post-panic recomputation failed: %v", n.Err)
	}
	if n.Seq != 2 {
		t.Fatalf("post-panic Seq = %d, want 2", n.Seq)
	}
}

// TestRegisterAndUpdatePanics checks the synchronous paths: a planner
// panic during Register or Update comes back to the caller as a
// *PanicError, and the group (for Update) keeps its previous plan.
func TestRegisterAndUpdatePanics(t *testing.T) {
	p := newStubPlan()
	e := NewWS(p.fn, Options{Shards: 1})
	defer e.Close()
	id, err := e.Register(threeUsers(), nil)
	if err != nil {
		t.Fatal(err)
	}
	before := e.Meeting(id)

	faultinject.Arm(faultinject.Script{faultinject.EnginePlan: faultinject.PanicEvery(1, 42)})
	var pe *PanicError
	if _, err := e.Register(threeUsers(), nil); !errors.As(err, &pe) {
		t.Fatalf("Register during panic schedule: err = %v, want *PanicError", err)
	}
	if err := e.Update(id, threeUsers(), nil); !errors.As(err, &pe) {
		t.Fatalf("Update during panic schedule: err = %v, want *PanicError", err)
	}
	faultinject.Disarm()

	if got := e.Meeting(id); got != before {
		t.Fatalf("meeting moved across a panicked Update: %v -> %v", before, got)
	}
	if err := e.Update(id, threeUsers(), nil); err != nil {
		t.Fatalf("post-panic Update: %v", err)
	}
}

// TestPanicInvalidatesRetainedState checks the incremental engine's
// recovery rule: after a replanner panic the retained plan state is
// dropped, so the next recomputation sees an invalid state and replans
// from scratch rather than trusting half-written regions.
func TestPanicInvalidatesRetainedState(t *testing.T) {
	var sawValid []bool
	var mu sync.Mutex
	replan := func(ws *core.Workspace, st *core.PlanState, users []geom.Point, dirs []core.Direction) (geom.Point, []core.SafeRegion, core.Stats, core.IncOutcome, error) {
		mu.Lock()
		sawValid = append(sawValid, st.Valid())
		mu.Unlock()
		regions := make([]core.SafeRegion, len(users))
		st.Record(core.Plan{Regions: regions})
		return geom.Pt(0.5, 0.5), regions, core.Stats{}, core.IncFull, nil
	}
	e := NewWS(nil, Options{Shards: 1, Replan: replan})
	defer e.Close()
	id, err := e.Register(threeUsers(), nil)
	if err != nil {
		t.Fatal(err)
	}

	faultinject.Arm(faultinject.Script{faultinject.EnginePlan: faultinject.PanicOn(1, "torn")})
	var pe *PanicError
	if err := e.Update(id, threeUsers(), nil); !errors.As(err, &pe) {
		t.Fatalf("err = %v, want *PanicError", err)
	}
	faultinject.Disarm()

	if err := e.Update(id, threeUsers(), nil); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	defer mu.Unlock()
	// Call 1: registration (invalid zero state). The panicked update
	// never reached the replanner (the failpoint fires before it). Call
	// 2: the post-panic update, which must see an invalidated state.
	if len(sawValid) != 2 {
		t.Fatalf("replanner ran %d times, want 2", len(sawValid))
	}
	if sawValid[1] {
		t.Fatal("post-panic recomputation saw a valid retained state; panic must invalidate it")
	}
}

// TestClosePostContract hammers synchronous Updates and Submits against
// a concurrent Close: every call returns nil or ErrClosed (never a
// panic, never a send on a closed channel), Close waits for in-flight
// operations, and the engine's goroutines drain.
func TestClosePostContract(t *testing.T) {
	baseline := runtime.NumGoroutine()
	p := newStubPlan()
	close(p.release) // never block
	e := NewWS(p.fn, Options{Shards: 2, Workers: 2})
	sub := e.Subscribe(1 << 14)

	const groups = 8
	ids := make([]GroupID, groups)
	for i := range ids {
		id, err := e.Register(threeUsers(), nil)
		if err != nil {
			t.Fatal(err)
		}
		ids[i] = id
	}

	var wg sync.WaitGroup
	var bad atomic.Value
	stop := make(chan struct{})
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				var err error
				if i%2 == 0 {
					err = e.Update(ids[(w+i)%groups], threeUsers(), nil)
				} else {
					err = e.Submit(ids[(w+i)%groups], threeUsers(), nil)
				}
				if err != nil && !errors.Is(err, ErrClosed) {
					bad.Store(err)
					return
				}
				if errors.Is(err, ErrClosed) {
					return
				}
			}
		}(w)
	}
	time.Sleep(20 * time.Millisecond)
	e.Close()
	close(stop)
	wg.Wait()
	if err := bad.Load(); err != nil {
		t.Fatalf("operation racing Close returned %v, want nil or ErrClosed", err)
	}
	// Drain to the close: after Close returns the channel must be closed
	// (a blocked receive here would be the old race).
	for range sub.C {
	}
	if err := e.Update(ids[0], threeUsers(), nil); !errors.Is(err, ErrClosed) {
		t.Fatalf("post-Close Update: %v, want ErrClosed", err)
	}
	if err := e.Submit(ids[0], threeUsers(), nil); !errors.Is(err, ErrClosed) {
		t.Fatalf("post-Close Submit: %v, want ErrClosed", err)
	}
	if _, err := e.Register(threeUsers(), nil); !errors.Is(err, ErrClosed) {
		t.Fatalf("post-Close Register: %v, want ErrClosed", err)
	}

	// Goroutine accounting: everything the engine spawned must be gone.
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > baseline {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("goroutines leaked: %d > baseline %d\n%s",
				runtime.NumGoroutine(), baseline, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestCloseDrainDeadline wedges the only worker and queues more work
// behind it: Close must give up after the drain deadline, abandon the
// queue (counted), and return in bounded time.
func TestCloseDrainDeadline(t *testing.T) {
	p := newStubPlan()
	e := NewWS(p.fn, Options{Shards: 1, Workers: 1, CloseTimeout: 40 * time.Millisecond})
	var ids []GroupID
	for i := 0; i < 4; i++ {
		id, err := e.Register(threeUsers(), nil)
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	p.blocking.Store(true)
	if err := e.Submit(ids[0], threeUsers(), nil); err != nil {
		t.Fatal(err)
	}
	<-p.entered // worker wedged
	for _, id := range ids[1:] {
		if err := e.Submit(id, threeUsers(), nil); err != nil {
			t.Fatal(err)
		}
	}

	start := time.Now()
	e.Close()
	elapsed := time.Since(start)
	if elapsed > 2*time.Second {
		t.Fatalf("Close took %v despite a %v drain deadline", elapsed, 40*time.Millisecond)
	}
	if abandoned := e.Counters().Abandoned; abandoned != 3 {
		t.Fatalf("abandoned = %d, want 3 (queued behind the wedged worker)", abandoned)
	}
	close(p.release) // let the wedged worker go home
}

// TestCloseReturnsPastWedgedObserver wedges the only worker inside an
// observer call: Close still returns once its two drain deadlines pass,
// with the subscription's channel closed, and the worker, released
// afterwards, finishes its emission to that subscription without a send
// on the closed channel.
func TestCloseReturnsPastWedgedObserver(t *testing.T) {
	p := newStubPlan()
	close(p.release)
	const d = 50 * time.Millisecond
	e := NewWS(p.fn, Options{Shards: 1, Workers: 1, CloseTimeout: d})
	id, err := e.Register(threeUsers(), nil)
	if err != nil {
		t.Fatal(err)
	}
	entered, release := make(chan struct{}), make(chan struct{})
	var calls atomic.Int32
	e.Observe(func(Notification) {
		if calls.Add(1) == 1 {
			close(entered)
			<-release
		}
	})
	sub := e.Subscribe(1)
	if err := e.Submit(id, threeUsers(), nil); err != nil {
		t.Fatal(err)
	}
	select {
	case <-entered:
	case <-time.After(10 * time.Second):
		t.Fatal("the plan never reached the observer")
	}

	closed := make(chan time.Duration, 1)
	start := time.Now()
	go func() {
		e.Close()
		closed <- time.Since(start)
	}()
	select {
	case elapsed := <-closed:
		if elapsed > 2*d+time.Second {
			t.Fatalf("Close took %v with a %v drain deadline", elapsed, d)
		}
	case <-time.After(10 * time.Second):
		close(release)
		t.Fatal("Close hung on an observer call in flight")
	}
	if _, ok := <-sub.C; ok {
		t.Fatal("the subscription's channel is open after Close")
	}
	close(release)
	e.wg.Wait() // the worker's emission reaches the closed subscription
}
