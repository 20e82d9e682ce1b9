// Package engine is the concurrent heart of the MPN server: a sharded,
// lock-striped registry of monitored groups that turns the single-group
// compute kernel (core.Planner via a PlanWSFunc) into a high-throughput
// asynchronous service.
//
// Architecture:
//
//   - Groups are hashed over S independent shards. Each shard owns its
//     slice of the registry under its own mutex, so registration, lookup
//     and submission on different shards never contend.
//   - Each shard has a FIFO run queue drained by a pool of worker
//     goroutines: the shard's groups that hold a pending location
//     snapshot, each at most once. Submitting a location update enqueues
//     the group; workers pop groups and recompute the meeting point and
//     safe regions via the PlanWSFunc, outside all registry locks.
//   - Updates coalesce: a group holds at most one pending location
//     snapshot and sits in the run queue at most once, so the queue never
//     holds more entries than the shard has live groups and Submit never
//     waits for room. A burst of
//     submissions for the same group while a recomputation is queued or
//     running collapses into a single recomputation over the latest
//     locations (Notification.Coalesced reports how many submissions a
//     recomputation covered).
//   - Every recomputation hands a Notification (meeting point, fresh safe
//     regions, whether the meeting point moved) to each observer attached
//     with Observe, on the committing goroutine. A Subscription is an
//     observer whose sends never block; a slow subscriber drops frames
//     and the drop count is observable.
//
// A group enters the registry one way (publish), either planned or with
// its first snapshot queued: RegisterTag computes the first plan on the
// caller's goroutine and publishes the planned group, RegisterAsync
// publishes the group with that snapshot pending, so a shard worker
// commits its first plan like every later one.
//
// There is one path from a location snapshot to a notification:
// recompute plans the snapshot (compute, the engine's only call into the
// planner — a non-incremental PlanWSFunc is adapted to the ReplanWSFunc
// shape at construction), stores the plan, bumps Seq, journals and
// notifies. The synchronous Update runs it on the caller's goroutine,
// Submit/SubmitTag/RegisterAsync hand it to a shard worker; the two
// differ only in whose workspace plans and in who learns of a planner
// error (Update's caller, or the observers of the asynchronous path).
//
// The engine guarantees at most one in-flight asynchronous recomputation
// per group, so successful notifications for one group are emitted in
// strictly increasing Seq order (error notifications repeat the Seq of
// the last successful plan), and a submission is never lost: if locations
// arrive while the group is being recomputed, the worker re-enqueues the
// group when it finishes.
package engine

import (
	"errors"
	"fmt"
	"math"
	"runtime"
	"runtime/debug"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"mpn/internal/core"
	"mpn/internal/faultinject"
	"mpn/internal/geom"
	"mpn/internal/nbrcache"
)

// PlanWSFunc computes a meeting point and one safe region per user. The
// engine hands it the calling goroutine's reusable core.Workspace, so
// steady-state recomputations allocate only their returned regions. It
// must be safe for concurrent use with distinct workspaces (core.Planner
// is — including concurrently with POI mutation: every planner call pins
// one immutable index snapshot for its whole duration, so an engine
// recomputation racing a core.Planner.ApplyPOIs sees either entirely the
// old or entirely the new POI set, never a mix; core.Stats.IndexVersion in
// the emitted Notification reports which).
type PlanWSFunc func(ws *core.Workspace, users []geom.Point, dirs []core.Direction) (geom.Point, []core.SafeRegion, core.Stats, error)

// ReplanWSFunc is the incremental variant of PlanWSFunc: the engine
// additionally hands it the group's retained core.PlanState, which the
// implementation reads to decide how much of the previous plan survives
// the update and overwrites with the fresh plan. The engine serializes
// calls per group (each group's state is guarded by its replan lock), so
// implementations may mutate st freely; they must be safe for concurrent
// use across groups with distinct workspaces and states.
type ReplanWSFunc func(ws *core.Workspace, st *core.PlanState, users []geom.Point, dirs []core.Direction) (geom.Point, []core.SafeRegion, core.Stats, core.IncOutcome, error)

// PlannerKindWSFunc adapts a core.Planner to a PlanWSFunc for any region
// kind — the single unpacking point of the core.Plan result shape for
// the engine. KindNetRange requires a backend registered on the planner
// (see core.Planner.RegisterNetBackend). cache is accepted and ignored;
// removed with ROADMAP 9.
func PlannerKindWSFunc(pl *core.Planner, kind core.RegionKind, cache *nbrcache.Cache) PlanWSFunc {
	return func(ws *core.Workspace, users []geom.Point, dirs []core.Direction) (geom.Point, []core.SafeRegion, core.Stats, error) {
		p, _, err := pl.Plan(ws, core.PlanRequest{Kind: kind, Users: users, Dirs: dirs})
		if err != nil {
			return geom.Point{}, nil, core.Stats{}, err
		}
		return p.Best.Item.P, p.Regions, p.Stats, nil
	}
}

// PlannerKindIncFunc is the incremental counterpart of
// PlannerKindWSFunc: the returned ReplanWSFunc threads the group's
// retained core.PlanState through core.Plan, so kept and partial
// outcomes flow to the engine for any region kind. Wire it into
// Options.Replan to give the engine incremental safe-region maintenance.
// cache is accepted and ignored; removed with ROADMAP 9.
func PlannerKindIncFunc(pl *core.Planner, kind core.RegionKind, cache *nbrcache.Cache) ReplanWSFunc {
	return func(ws *core.Workspace, st *core.PlanState, users []geom.Point, dirs []core.Direction) (geom.Point, []core.SafeRegion, core.Stats, core.IncOutcome, error) {
		p, out, err := pl.Plan(ws, core.PlanRequest{Kind: kind, Users: users, Dirs: dirs, State: st})
		if err != nil {
			return geom.Point{}, nil, core.Stats{}, out, err
		}
		return p.Best.Item.P, p.Regions, p.Stats, out, nil
	}
}

// GroupID identifies a registered group.
type GroupID uint64

// Errors returned by the engine.
var (
	ErrClosed       = errors.New("engine: closed")
	ErrUnknownGroup = errors.New("engine: unknown group")
	ErrNoUsers      = errors.New("engine: empty user group")
	errNonFinite    = errors.New("engine: non-finite user location")
)

// PanicError is the error a notification carries when the planner
// panicked during a recomputation. The engine recovers planner panics on
// every path (shard workers, synchronous Update, registration), so one
// bad group cannot kill a shard's worker pool; the group keeps its
// previous plan, the retained incremental state is invalidated (the next
// recomputation replans from scratch), and the panic surfaces as a
// notification with Err set to a *PanicError.
type PanicError struct {
	// Value is the recovered panic value.
	Value any
	// Stack is the panicking goroutine's stack, captured at recovery.
	Stack []byte
}

func (e *PanicError) Error() string {
	return fmt.Sprintf("engine: planner panic: %v", e.Value)
}

// DefaultCloseTimeout is the drain bound a zero Options.CloseTimeout
// selects.
const DefaultCloseTimeout = 5 * time.Second

// Journal receives the engine's durably significant group transitions
// (see Options.Journal). GroupCommitted reports a committed plan
// recomputation with the member locations it ran from; GroupRemoved
// reports unregistration. Both are called with internal locks held and
// must return quickly without re-entering the engine.
type Journal interface {
	GroupCommitted(tag any, users []geom.Point, dirs []core.Direction)
	GroupRemoved(tag any)
}

// Options configure the engine. The zero value of any field selects its
// default.
type Options struct {
	// Shards is the number of independent registry shards (default
	// GOMAXPROCS, minimum 1).
	Shards int
	// Workers is the number of recomputation workers per shard (default
	// 1). Total compute parallelism is Shards × Workers. The worker pool
	// starts lazily on the first asynchronous call (SubmitTag or
	// RegisterAsync), so an engine used only through the synchronous path
	// spawns no goroutines.
	Workers int
	// CloseTimeout bounds how long Close waits for queued recomputations
	// to drain before abandoning the remaining queue entries (counted in
	// Counters.Abandoned). Zero selects DefaultCloseTimeout; negative
	// waits without bound.
	CloseTimeout time.Duration
	// Replan, when non-nil, enables incremental safe-region maintenance:
	// the engine retains each group's last plan state and hands it to
	// Replan on every recomputation (registration included), so updates
	// that leave the result set unchanged regrow only the regions they
	// invalidate (see Notification.Outcome). When nil, every
	// recomputation goes through the full planner.
	Replan ReplanWSFunc
	// Journal, when non-nil, observes every durably significant group
	// transition: each committed recomputation (registration included)
	// and the group's removal. Calls are made with the group's state
	// lock held, so per group they arrive in exactly commit order —
	// the property a write-ahead log needs. Implementations must be
	// fast and must not call back into the engine; slice arguments are
	// valid only for the duration of the call (the durable store
	// encodes and enqueues without blocking). The tag is the one given
	// at RegisterTag, the group's stable identity across its lifetime.
	Journal Journal
}

func (o Options) withDefaults() Options {
	if o.Shards <= 0 {
		o.Shards = runtime.GOMAXPROCS(0)
	}
	if o.Workers <= 0 {
		o.Workers = 1
	}
	if o.CloseTimeout == 0 {
		o.CloseTimeout = DefaultCloseTimeout
	}
	return o
}

// Notification reports one completed recomputation.
type Notification struct {
	// Group is the recomputed group.
	Group GroupID
	// Seq is the group's recomputation sequence number, starting at 1
	// with the group's first plan, whichever goroutine commits it. Per
	// group, successful notifications arrive in strictly increasing Seq
	// order; a notification with Err set repeats the Seq of the last
	// successful plan (0 when the first plan failed).
	Seq uint64
	// Meeting is the fresh optimal meeting point.
	Meeting geom.Point
	// Regions are the fresh safe regions, in user order.
	Regions []core.SafeRegion
	// Stats counts the work of this recomputation alone.
	Stats core.Stats
	// Coalesced is the number of submissions this recomputation covered
	// (>1 when a burst collapsed).
	Coalesced int
	// Changed reports whether Meeting differs from the previous plan's
	// meeting point.
	Changed bool
	// Outcome reports how much of the previous plan this recomputation
	// reused when the engine runs an incremental replanner (see
	// Options.Replan): core.IncKept (nothing changed, regions are the
	// retained plan), core.IncPartial (only invalidated regions were
	// regrown), or core.IncFull (from-scratch replan — always the value
	// on non-incremental engines).
	Outcome core.IncOutcome
	// Err is non-nil when the planner failed; Meeting and Regions then
	// hold the previous plan.
	Err error
	// Tag is the opaque tag of the newest submission this recomputation
	// covered (RegisterTag/SubmitTag), nil otherwise. The TCP server
	// threads the member-id ordering through it so deliveries can be
	// checked against membership churn.
	Tag any
}

// Subscription is one listener on the engine's notification stream, an
// observer (see Engine.Observe) that sends on C without blocking.
type Subscription struct {
	// C delivers notifications. It is closed by Subscription.Close and by
	// Engine.Close.
	C <-chan Notification

	mu      sync.Mutex        // orders send against close
	ch      chan Notification // nil once closed
	dropped atomic.Uint64
	detach  func()
}

// Dropped returns how many notifications were discarded because the
// subscriber was not draining C fast enough.
func (s *Subscription) Dropped() uint64 { return s.dropped.Load() }

// Close detaches the subscription and closes C.
func (s *Subscription) Close() { s.detach() }

// send is the subscription's observer. A call that began before C closed
// (a worker Close left behind, see Engine.Close) sends nothing.
func (s *Subscription) send(n Notification) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.ch == nil {
		return
	}
	select {
	case s.ch <- n:
	default:
		s.dropped.Add(1)
	}
}

// close closes C.
func (s *Subscription) close() {
	s.mu.Lock()
	defer s.mu.Unlock()
	close(s.ch)
	s.ch = nil
}

// observer is one attached notification callback (see observe).
type observer struct {
	fn   func(Notification)
	done func()
}

// update is one submitted location snapshot.
type update struct {
	users []geom.Point
	dirs  []core.Direction
	count int // submissions coalesced into this snapshot
	tag   any // opaque caller tag of the newest submission
}

// snapshots holds snapshots no one reads any more (committed, replaced or
// superseded) for newUpdate to refill: a pool holds only what is in
// flight, where a spare per group would pin one per group. Update's
// snapshot wraps the caller's slices and never enters it.
var snapshots = sync.Pool{New: func() any { return new(update) }}

// newUpdate copies one submission into a snapshot of its own.
func newUpdate(users []geom.Point, dirs []core.Direction, tag any) *update {
	up := snapshots.Get().(*update)
	up.users = append(up.users[:0], users...)
	up.dirs = append(up.dirs[:0], dirs...)
	up.count, up.tag = 1, tag
	return up
}

// groupState is the engine-side state of one group. The registry shard
// maps GroupID → *groupState; all mutable fields are guarded by mu.
type groupState struct {
	id   GroupID
	size int
	tag  any // RegisterTag's tag: the group's identity for Journal calls

	mu      sync.Mutex
	pending *update // latest unprocessed locations, nil if none
	queued  bool    // state sits in the shard run queue
	running bool    // a worker is recomputing this group
	removed bool    // unregistered; workers skip it
	submits uint64  // snapshots made pending so far (see recompute)

	meeting geom.Point
	regions []core.SafeRegion
	stats   core.Stats // accumulated across recomputations
	seq     uint64     // completed recomputations

	// replanMu serializes recomputations for this group and guards
	// planState, planned and dirs. It is held across the whole planning
	// call — per group there is at most one asynchronous recomputation in
	// flight, so it only ever contends with a racing synchronous Update.
	// Never acquired while holding mu.
	replanMu  sync.Mutex
	planState core.PlanState   // retained plan
	planned   []geom.Point     // locations of the last successful plan
	dirs      []core.Direction // headings derived from planned (see headings)
}

// shard is one lock stripe of the registry plus its run queue. Every
// entry of the queue is a registered group (see push and Unregister), so
// it never holds more than len(groups).
type shard struct {
	mu       sync.Mutex
	notEmpty *sync.Cond // run queue gained work or shard closed
	groups   map[GroupID]*groupState
	ready    []*groupState // FIFO run queue from head; slots are reused
	head     int
	closed   bool

	abandoned atomic.Uint64                   // queued entries dropped by Close's drain deadline
	coalesced atomic.Uint64                   // submissions folded into a newer one's committed plan
	plans     [core.IncKept + 1]atomic.Uint64 // committed plans by outcome
	verifies  atomic.Uint64                   // core.Stats.TileVerifies of committed plans
	accesses  atomic.Uint64                   // core.Stats.IndexAccesses of committed plans
}

// committed counts one committed plan that covered the given number of
// submissions.
func (sh *shard) committed(outcome core.IncOutcome, stats core.Stats, covered int) {
	sh.plans[outcome].Add(1)
	sh.coalesced.Add(uint64(covered - 1))
	sh.verifies.Add(uint64(stats.TileVerifies))
	sh.accesses.Add(uint64(stats.IndexAccesses))
}

func newShard() *shard {
	sh := &shard{groups: make(map[GroupID]*groupState)}
	sh.notEmpty = sync.NewCond(&sh.mu)
	return sh
}

// push appends st to the run queue; it never waits. A group unregistered
// since its caller marked it queued is not appended, so the queue holds
// only live groups. Returns false when the shard closed.
func (sh *shard) push(st *groupState) bool {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if sh.closed {
		return false
	}
	if sh.groups[st.id] == st {
		sh.readyLocked(st)
	}
	return true
}

// readyLocked appends st to the run queue and wakes a worker; sh.mu is
// held.
func (sh *shard) readyLocked(st *groupState) {
	if sh.head > 0 && len(sh.ready) == cap(sh.ready) { // move to the front, not grow
		n := copy(sh.ready, sh.ready[sh.head:])
		clear(sh.ready[n:])
		sh.ready, sh.head = sh.ready[:n], 0
	}
	sh.ready = append(sh.ready, st)
	sh.notEmpty.Signal()
}

// pop removes the next group to recompute, blocking until work arrives.
// Returns nil when the shard is closed and drained.
func (sh *shard) pop() *groupState {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	for len(sh.ready) == sh.head && !sh.closed {
		sh.notEmpty.Wait()
	}
	if len(sh.ready) == sh.head {
		return nil
	}
	st := sh.ready[sh.head]
	sh.ready[sh.head] = nil
	if sh.head++; sh.head == len(sh.ready) {
		sh.ready, sh.head = sh.ready[:0], 0
	}
	return st
}

func (sh *shard) close() {
	sh.mu.Lock()
	sh.closed = true
	sh.notEmpty.Broadcast()
	sh.mu.Unlock()
}

// abandon discards every queued entry, counting them, so Close's drain
// deadline can stop waiting on a wedged or oversized backlog. Workers
// then see an empty, closed queue and exit after their current
// recomputation.
func (sh *shard) abandon() {
	sh.mu.Lock()
	sh.abandoned.Add(uint64(len(sh.ready) - sh.head))
	sh.ready, sh.head = nil, 0
	sh.notEmpty.Broadcast()
	sh.mu.Unlock()
}

// Engine is the sharded concurrent group engine. All methods are safe for
// concurrent use.
type Engine struct {
	replan    ReplanWSFunc // Options.Replan, or the PlanWSFunc adapted to its shape
	journal   Journal      // non-nil iff Options.Journal was set
	opts      Options
	shards    []*shard
	nextID    atomic.Uint64
	wg        sync.WaitGroup
	startOnce sync.Once
	closed    atomic.Bool

	// opGate tracks in-flight synchronous operations: Register, Submit
	// and Update hold it for read over their whole call (computation and
	// emission included); Close acquires it for write after flagging
	// closed, so it returns only after every operation that was admitted
	// before the flag has finished. This is what makes the post-Close
	// contract exact: once Close returns, no Update is still computing
	// and no notification is still being emitted.
	opGate sync.RWMutex

	// obs is the attached observers, replaced whole on every attach and
	// detach (under obsMu), so emit reads it without a lock and a detach
	// never waits for an observer call in flight.
	obsMu sync.Mutex
	obs   atomic.Pointer[[]*observer]
}

// beginOp admits one synchronous operation, taking opGate for read. It
// returns false (gate released) when the engine is closed. The check
// happens under the read lock, so an operation admitted here is
// guaranteed to finish before Close returns.
func (e *Engine) beginOp() bool {
	e.opGate.RLock()
	if e.closed.Load() {
		e.opGate.RUnlock()
		return false
	}
	return true
}

// NewWS builds an engine over a workspace-aware plan function: each shard
// worker owns one long-lived core.Workspace reused across all its
// recomputations, and the synchronous Register/Update paths borrow one
// from the core pool, so steady-state planning is allocation-free. When
// Options.Replan is set every recomputation goes through it and plan is
// unused (it may be nil); otherwise plan is adapted to the replanner's
// shape, and every outcome is core.IncFull.
func NewWS(plan PlanWSFunc, opts Options) *Engine {
	replan := opts.Replan
	if replan == nil {
		if plan == nil {
			panic("engine: nil PlanWSFunc")
		}
		replan = func(ws *core.Workspace, _ *core.PlanState, users []geom.Point, dirs []core.Direction) (geom.Point, []core.SafeRegion, core.Stats, core.IncOutcome, error) {
			meeting, regions, stats, err := plan(ws, users, dirs)
			return meeting, regions, stats, core.IncFull, err
		}
	}
	opts = opts.withDefaults()
	e := &Engine{
		replan:  replan,
		journal: opts.Journal,
		opts:    opts,
		shards:  make([]*shard, opts.Shards),
	}
	for i := range e.shards {
		e.shards[i] = newShard()
	}
	return e
}

// start spawns the worker pool (once, on first Submit). Workers started
// after Close see closed, drained shards and exit immediately.
func (e *Engine) start() {
	for _, sh := range e.shards {
		for w := 0; w < e.opts.Workers; w++ {
			e.wg.Add(1)
			go e.worker(sh)
		}
	}
}

// Options returns the resolved configuration.
func (e *Engine) Options() Options { return e.opts }

func (e *Engine) shardFor(id GroupID) *shard {
	// Fibonacci hashing spreads sequential ids across shards.
	h := uint64(id) * 0x9e3779b97f4a7c15
	return e.shards[h%uint64(len(e.shards))]
}

// Register adds a group, computes its first plan synchronously (so the
// caller can read regions immediately), and emits the Seq-1 notification.
// dirs reach the planner as given: a registration has no earlier plan to
// derive headings from.
func (e *Engine) Register(users []geom.Point, dirs []core.Direction) (GroupID, error) {
	return e.RegisterTag(users, dirs, nil)
}

// RegisterTag is Register with an opaque tag carried on the registration
// notification (see Notification.Tag).
func (e *Engine) RegisterTag(users []geom.Point, dirs []core.Direction, tag any) (GroupID, error) {
	if !e.beginOp() {
		return 0, ErrClosed
	}
	defer e.opGate.RUnlock()
	// The zero plan state forces the replanner down the full path and
	// comes back seeded, so the first escape report can already be served
	// incrementally. The group is published only once its plan succeeded.
	st, err := newGroup(users, tag)
	if err != nil {
		return 0, err
	}
	ws := core.GetWorkspace()
	meeting, regions, stats, outcome, err := e.compute(st, ws, users, dirs)
	core.PutWorkspace(ws)
	if err != nil {
		return 0, err
	}
	st.meeting, st.regions, st.stats, st.seq = meeting, regions, stats, 1
	id, err := e.publish(st)
	if err != nil {
		return 0, err
	}
	e.shardFor(id).committed(outcome, stats, 1)
	if e.journal != nil {
		// The registration commit. No lock needed for ordering: a
		// submission for this group cannot exist before the id returns.
		e.journal.GroupCommitted(tag, users, dirs)
	}
	e.emit(Notification{
		Group: id, Seq: 1, Meeting: meeting, Regions: regions,
		Stats: stats, Coalesced: 1, Changed: true, Tag: tag,
	})
	return id, nil
}

// RegisterAsync adds a group and queues its first plan on the group's
// shard, returning at once: a shard worker commits the plan as Seq 1 —
// journaling it and notifying the observers like every later plan — and
// a planner error reaches the observers as a notification with Seq 0, the
// group staying registered so that its next submission plans from
// scratch. Until that commit the group has no plan: Meeting, Regions,
// Region, Stats and Updates read zero, NeedsUpdate is true, and a
// submission coalesces into the first plan. dirs reach the planner as
// given, as for Register.
func (e *Engine) RegisterAsync(users []geom.Point, dirs []core.Direction, tag any) (GroupID, error) {
	if !e.beginOp() {
		return 0, ErrClosed
	}
	defer e.opGate.RUnlock()
	st, err := newGroup(users, tag)
	if err != nil {
		return 0, err
	}
	e.startOnce.Do(e.start)
	st.pending, st.queued, st.submits = newUpdate(users, dirs, tag), true, 1
	return e.publish(st)
}

// newGroup is the unpublished state of a group registering with users.
func newGroup(users []geom.Point, tag any) (*groupState, error) {
	if len(users) == 0 {
		return nil, ErrNoUsers
	}
	st := &groupState{size: len(users), tag: tag}
	if err := st.validate(users); err != nil {
		return nil, err
	}
	return st, nil
}

// publish gives st a fresh id and enters it in its shard's registry and,
// when it is marked queued, in the shard's run queue. It is the one way a
// group becomes reachable, so st needs no lock until it returns.
func (e *Engine) publish(st *groupState) (GroupID, error) {
	st.id = GroupID(e.nextID.Add(1))
	sh := e.shardFor(st.id)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if sh.closed {
		return 0, ErrClosed
	}
	sh.groups[st.id] = st
	if st.queued {
		sh.readyLocked(st)
	}
	return st.id, nil
}

// Unregister removes a group and takes it out of its shard's run queue.
// Queued or in-flight recomputations for it are discarded.
func (e *Engine) Unregister(id GroupID) {
	sh := e.shardFor(id)
	sh.mu.Lock()
	st := sh.groups[id]
	delete(sh.groups, id)
	if i := slices.Index(sh.ready[sh.head:], st); i >= 0 {
		sh.ready = slices.Delete(sh.ready, sh.head+i, sh.head+i+1)
	}
	sh.mu.Unlock()
	if st != nil {
		st.mu.Lock()
		st.removed = true
		st.pending = nil
		if e.journal != nil && st.seq > 0 {
			// Under st.mu, after removed is set: commits serialize on the
			// same lock and skip removed groups, so per group the removal
			// is the journal's final record. A group whose first plan
			// never committed has no record to remove.
			e.journal.GroupRemoved(st.tag)
		}
		st.mu.Unlock()
		// Drop the retained plan so the dead state pins no regions. An
		// in-flight recomputation may still record into it; the state is
		// unreachable once that finishes (and its result is discarded).
		st.replanMu.Lock()
		st.planState.Invalidate()
		st.replanMu.Unlock()
	}
}

// lookup returns the group's state, or nil.
func (e *Engine) lookup(id GroupID) *groupState {
	sh := e.shardFor(id)
	sh.mu.Lock()
	st := sh.groups[id]
	sh.mu.Unlock()
	return st
}

// validate checks a location snapshot against the group's size and
// refuses non-finite coordinates (see CheckFinite).
func (st *groupState) validate(users []geom.Point) error {
	if len(users) != st.size {
		return fmt.Errorf("engine: group has %d users, got %d locations", st.size, len(users))
	}
	return CheckFinite(users)
}

// CheckFinite refuses NaN and ±Inf coordinates, with the error Register,
// Submit and Update return for them: the planner would silently plan as
// if that member did not exist and hand her a region that does not
// contain her.
func CheckFinite(users []geom.Point) error {
	for _, u := range users {
		// x-x is 0 for every finite x and NaN for NaN and ±Inf.
		if u.X-u.X != 0 || u.Y-u.Y != 0 {
			return errNonFinite
		}
	}
	return nil
}

// Submit schedules an asynchronous recomputation from the users' current
// locations. It returns once the update is recorded: bursts for the same
// group coalesce into one recomputation over the latest snapshot, and the
// result reaches the observers (see Observe). Submit never waits for
// queue room: the run queue holds each group at most once. dirs of the
// wrong length, nil included, mean "derived from the group's last planned
// locations" (see compute). The caller may reuse users and dirs at once.
func (e *Engine) Submit(id GroupID, users []geom.Point, dirs []core.Direction) error {
	return e.SubmitTag(id, users, dirs, nil)
}

// SubmitTag is Submit with an opaque tag: the notification for the
// recomputation that covers this submission carries the tag of the
// newest coalesced submission (see Notification.Tag). After a group's
// first commit it allocates nothing, given a pointer (unboxed) tag.
func (e *Engine) SubmitTag(id GroupID, users []geom.Point, dirs []core.Direction, tag any) error {
	if !e.beginOp() {
		return ErrClosed
	}
	defer e.opGate.RUnlock()
	faultinject.Fire(faultinject.EngineSubmit)
	e.startOnce.Do(e.start)
	st := e.lookup(id)
	if st == nil {
		return ErrUnknownGroup
	}
	if err := st.validate(users); err != nil {
		return err
	}
	up := newUpdate(users, dirs, tag)
	st.mu.Lock()
	if st.removed {
		st.mu.Unlock()
		snapshots.Put(up)
		return ErrUnknownGroup
	}
	if st.pending != nil {
		up.count += st.pending.count
		snapshots.Put(st.pending) // Update tells snapshots apart by submits, not pointers
	}
	st.pending = up
	st.submits++
	enqueue := !st.queued && !st.running
	if enqueue {
		st.queued = true
	}
	st.mu.Unlock()
	if enqueue && !e.shardFor(id).push(st) {
		return ErrClosed
	}
	return nil
}

// compute plans one location snapshot against the group's retained
// state — the engine's one call into the planner. It goes through the
// EnginePlan failpoint with panic isolation: a panic, the planner's own
// or an injected one, comes back as a *PanicError instead of unwinding
// the calling goroutine (which on the worker path would kill a pool
// worker). The group's replan lock is held across the whole call: it
// guards the retained plan state, serializing a synchronous Update
// against the at-most-one asynchronous recomputation in flight.
//
// dirs whose length matches users reach the planner unchanged. Otherwise,
// once the group has a successful plan, compute derives the headings from
// that plan's locations (see headings); registration has none, so its
// dirs pass through. Only a successful plan advances that reference
// snapshot. Derived headings are not journaled: after a restore or a
// failover the first plan is again a registration.
func (e *Engine) compute(st *groupState, ws *core.Workspace, users []geom.Point, dirs []core.Direction) (meeting geom.Point, regions []core.SafeRegion, stats core.Stats, outcome core.IncOutcome, err error) {
	st.replanMu.Lock()
	defer st.replanMu.Unlock()
	defer func() {
		if v := recover(); v != nil {
			// The panic may have left the retained state half-written.
			// Drop it so the group's next recomputation replans from
			// scratch off a clean slate instead of trusting torn state.
			st.planState.Invalidate()
			err = &PanicError{Value: v, Stack: debug.Stack()}
		}
	}()
	faultinject.Fire(faultinject.EnginePlan)
	if len(dirs) != len(users) && len(st.planned) == len(users) {
		dirs = st.headings(users)
	}
	meeting, regions, stats, outcome, err = e.replan(ws, &st.planState, users, dirs)
	if err == nil {
		st.planned = append(st.planned[:0], users...)
	}
	return meeting, regions, stats, outcome, err
}

// headingTheta is the cone half-width θ of a derived heading, whatever
// the planner's Options.Theta. On euclid_tile (medians of seeds 1–5),
// ops_per_kts read 269.7 at π/8, 272.4 at π/12, 275.0 at π/6 and 290.2 at
// the planner's default π/4.
const headingTheta = math.Pi / 8

// headings derives each member's heading for the directed tile ordering
// from the group's last successfully planned locations: the bearing of
// her move since then within a cone of headingTheta, or the zero
// Direction (the planner's default heading and Options.Theta) if she has
// not moved. The buffer is the group's own, reused across
// recomputations; callers hold replanMu.
func (st *groupState) headings(users []geom.Point) []core.Direction {
	st.dirs = st.dirs[:0]
	for i, u := range users {
		var d core.Direction
		if dx, dy := u.X-st.planned[i].X, u.Y-st.planned[i].Y; dx != 0 || dy != 0 {
			d = core.Direction{Angle: math.Atan2(dy, dx), Theta: headingTheta}
		}
		st.dirs = append(st.dirs, d)
	}
	return st.dirs
}

// recompute is the one path from a location snapshot to a committed
// plan: compute, store the plan, bump Seq, journal, notify. Update runs
// it on the caller's goroutine with a pooled workspace, the shard worker
// on its own. superseded is the group's submits when Update began (the
// worker's 0 is none): a pending snapshot that count still describes is
// dropped, its submissions counted as covered here. A planner error
// leaves the previous plan (and its Seq) in place and is returned; a
// group unregistered while its plan was computing commits nothing,
// journals nothing, emits nothing and returns ErrUnknownGroup.
func (e *Engine) recompute(st *groupState, ws *core.Workspace, up *update, superseded uint64) error {
	meeting, regions, stats, outcome, err := e.compute(st, ws, up.users, up.dirs)
	if err != nil {
		return err
	}
	st.mu.Lock()
	if st.removed {
		st.mu.Unlock()
		return ErrUnknownGroup
	}
	covered := up.count
	if st.pending != nil && st.submits == superseded {
		// The group may stay queued; the worker skips a nil pending.
		covered += st.pending.count
		snapshots.Put(st.pending)
		st.pending = nil
	}
	changed := st.seq == 0 || meeting != st.meeting
	st.meeting = meeting
	st.regions = regions
	st.stats.Add(stats)
	st.seq++
	e.shardFor(st.id).committed(outcome, stats, covered)
	if e.journal != nil {
		// Prefer the covering submission's tag: it describes the snapshot
		// this commit was computed from. Untagged submissions fall back to
		// the group's registration identity.
		jt := up.tag
		if jt == nil {
			jt = st.tag
		}
		e.journal.GroupCommitted(jt, up.users, up.dirs)
	}
	n := Notification{
		Group: st.id, Seq: st.seq, Meeting: meeting, Regions: regions,
		Stats: stats, Coalesced: covered, Changed: changed,
		Outcome: outcome, Tag: up.tag,
	}
	st.mu.Unlock()
	e.emit(n)
	return nil
}

// Update recomputes synchronously on the caller's goroutine and emits the
// notification before returning. A pending snapshot that was already
// queued when Update began is superseded — Update's locations are newer —
// and discarded, so an older Submit cannot overwrite this result; a
// Submit that arrives during the computation is kept and recomputed
// after. Seq assignment stays strictly increasing through the shared
// per-group state, but a synchronous Update racing an asynchronous
// recomputation already in flight may emit out of Seq order (the two
// commit independently, last store wins). dirs are read as Submit reads
// them: nil headings are derived from the group's last planned locations.
func (e *Engine) Update(id GroupID, users []geom.Point, dirs []core.Direction) error {
	if !e.beginOp() {
		return ErrClosed
	}
	defer e.opGate.RUnlock()
	st := e.lookup(id)
	if st == nil {
		return ErrUnknownGroup
	}
	if err := st.validate(users); err != nil {
		return err
	}
	st.mu.Lock()
	superseded := st.submits
	st.mu.Unlock()
	ws := core.GetWorkspace()
	err := e.recompute(st, ws, &update{users: users, dirs: dirs, count: 1}, superseded)
	core.PutWorkspace(ws)
	return err
}

// worker drains one shard's run queue. Each worker owns one long-lived
// workspace, reused across every recomputation it performs, so a warm
// worker plans without allocating scratch.
func (e *Engine) worker(sh *shard) {
	defer e.wg.Done()
	ws := core.NewWorkspace()
	for {
		st := sh.pop()
		if st == nil {
			return
		}
		st.mu.Lock()
		st.queued = false
		if st.removed || st.pending == nil || st.running {
			// running can't be set here (a group is enqueued at most
			// once and only re-enqueued after running clears), but the
			// guard keeps the invariant local.
			st.mu.Unlock()
			continue
		}
		up := st.pending
		st.pending = nil
		st.running = true
		st.mu.Unlock()

		err := e.recompute(st, ws, up, 0)

		st.mu.Lock()
		// The asynchronous path has no caller to return a planner failure
		// to: surface it as a notification over the previous plan.
		emit := err != nil && !st.removed
		var n Notification
		if emit {
			n = Notification{
				Group: st.id, Seq: st.seq, Meeting: st.meeting,
				Regions: st.regions, Coalesced: up.count, Err: err,
				Tag: up.tag,
			}
		}
		requeue := st.pending != nil && !st.removed
		if requeue {
			st.queued = true
		}
		st.running = false
		st.mu.Unlock()
		snapshots.Put(up)

		if emit {
			e.emit(n)
		}
		if requeue {
			sh.push(st)
		}
	}
}

// Observe attaches fn, which the goroutine that commits a plan — the
// caller of Register or Update, or a shard worker — calls with its
// Notification once every group and shard lock is released; per group, a
// worker's calls arrive in Seq order. A worker plans nothing else while
// fn runs, and fn must not attach or detach observers or close the
// engine. Close detaches every observer (see Close).
func (e *Engine) Observe(fn func(Notification)) {
	e.observe(fn, func() {})
}

// Subscribe attaches a notification listener with the given channel
// buffer (minimum 1). Sends never block: when the buffer is full the
// notification is dropped and counted.
func (e *Engine) Subscribe(buffer int) *Subscription {
	ch := make(chan Notification, max(buffer, 1))
	s := &Subscription{C: ch, ch: ch}
	s.detach = e.observe(s.send, s.close)
	return s
}

// observe attaches fn; done runs once, when it is detached (at once on a
// closed engine).
func (e *Engine) observe(fn func(Notification), done func()) (detach func()) {
	o := &observer{fn: fn, done: done}
	e.obsMu.Lock()
	defer e.obsMu.Unlock()
	if e.closed.Load() {
		done()
		return func() {}
	}
	var obs []*observer
	if p := e.obs.Load(); p != nil {
		obs = slices.Clone(*p)
	}
	obs = append(obs, o)
	e.obs.Store(&obs)
	return func() {
		e.obsMu.Lock()
		defer e.obsMu.Unlock()
		p := e.obs.Load()
		if p == nil {
			return
		}
		if i := slices.Index(*p, o); i >= 0 {
			obs := slices.Delete(slices.Clone(*p), i, i+1)
			e.obs.Store(&obs)
			done()
		}
	}
}

// emit hands a notification to every observer in turn.
func (e *Engine) emit(n Notification) {
	if p := e.obs.Load(); p != nil {
		for _, o := range *p {
			o.fn(n)
		}
	}
}

// Meeting returns the group's current meeting point (zero if unknown).
func (e *Engine) Meeting(id GroupID) geom.Point {
	st := e.lookup(id)
	if st == nil {
		return geom.Point{}
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.meeting
}

// Size returns the group's member count (fixed at registration), or 0
// for an unknown group.
func (e *Engine) Size(id GroupID) int {
	st := e.lookup(id)
	if st == nil {
		return 0
	}
	return st.size
}

// Regions returns a copy of the group's safe regions.
func (e *Engine) Regions(id GroupID) []core.SafeRegion {
	st := e.lookup(id)
	if st == nil {
		return nil
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	return slices.Clone(st.regions)
}

// Region returns user i's safe region (zero region when out of range).
func (e *Engine) Region(id GroupID, i int) core.SafeRegion {
	st := e.lookup(id)
	if st == nil {
		return core.SafeRegion{}
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	if i < 0 || i >= len(st.regions) {
		return core.SafeRegion{}
	}
	return st.regions[i]
}

// NeedsUpdate reports whether user i at loc escapes her safe region. It
// is conservative: unknown groups and out-of-range indices need updates.
func (e *Engine) NeedsUpdate(id GroupID, i int, loc geom.Point) bool {
	st := e.lookup(id)
	if st == nil {
		return true
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	if i < 0 || i >= len(st.regions) {
		return true
	}
	return !st.regions[i].Contains(loc)
}

// Stats returns the group's accumulated computation counters.
func (e *Engine) Stats(id GroupID) core.Stats {
	st := e.lookup(id)
	if st == nil {
		return core.Stats{}
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.stats
}

// Updates returns how many recomputations completed for the group
// (registration counts as the first).
func (e *Engine) Updates(id GroupID) int {
	st := e.lookup(id)
	if st == nil {
		return 0
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	return int(st.seq)
}

// NumGroups returns the registered group count across all shards.
func (e *Engine) NumGroups() int {
	n := 0
	for _, sh := range e.shards {
		sh.mu.Lock()
		n += len(sh.groups)
		sh.mu.Unlock()
	}
	return n
}

// Close shuts the engine down with a drain deadline. The post-Close
// contract:
//
//   - Synchronous operations (Register, Update, Submit) that were
//     admitted before Close have fully finished — computation and
//     notification emission included — by the time Close returns; calls
//     arriving after return ErrClosed. This is the opGate: Close waits
//     for every in-flight caller, so an Update returning nil has had its
//     notification handed to observers before any is detached.
//   - Recomputations already running or already queued get
//     Options.CloseTimeout to complete and emit. When the deadline
//     passes, the remaining queue entries are abandoned (counted in
//     Counters.Abandoned) and workers exit after their current
//     recomputation; a worker wedged inside the planner or an observer
//     past a second deadline is left behind rather than hanging Close. A
//     snapshot accepted while its group's recomputation was in flight may
//     be discarded without a notification — Close is a shutdown, not a
//     flush.
//   - Every observer is detached last, after all emission has ceased or
//     the second deadline passed (a Subscription's channel closes then).
//     A worker left behind may still finish the emission it was in, but
//     a Subscription it reaches after its channel closed receives
//     nothing.
func (e *Engine) Close() {
	if !e.closed.CompareAndSwap(false, true) {
		return
	}
	// Closing the shards first tells workers to exit once their queues
	// drain; a Submit admitted before the flag then returns ErrClosed.
	for _, sh := range e.shards {
		sh.close()
	}
	// Wait for in-flight synchronous operations to finish.
	e.opGate.Lock()
	e.opGate.Unlock() //nolint:staticcheck // gate barrier, not a critical section
	// Drain the worker pool under the deadline.
	done := make(chan struct{})
	go func() {
		e.wg.Wait()
		close(done)
	}()
	if d := e.opts.CloseTimeout; d > 0 {
		t := time.NewTimer(d)
		select {
		case <-done:
			t.Stop()
		case <-t.C:
			// Deadline passed with work still queued: abandon the queues
			// so workers stop after their current recomputation, then
			// give them one more deadline to come home.
			for _, sh := range e.shards {
				sh.abandon()
			}
			t2 := time.NewTimer(d)
			select {
			case <-done:
				t2.Stop()
			case <-t2.C:
				// A worker is wedged inside the planner or an observer.
				// Leaving it behind is safe: detaching waits for no
				// observer call, and a Subscription closed below drops
				// whatever the worker sends it later.
			}
		}
	} else {
		<-done
	}
	e.obsMu.Lock()
	defer e.obsMu.Unlock()
	if p := e.obs.Swap(nil); p != nil {
		for _, o := range *p {
			o.done()
		}
	}
}

// Counters is the engine's accounting, summed over its shards: the run
// queue, shutdown, coalescing, and the plans it committed with the
// planner work they did. Every field but Queued only grows.
type Counters struct {
	// Queued is the current length of the run queues: groups waiting for a
	// worker, never more than the registered groups.
	Queued int
	// Abandoned counts queued recomputations discarded when Close's
	// drain deadline passed.
	Abandoned uint64
	// Coalesced counts submissions folded into a newer submission's
	// committed plan (Notification.Coalesced − 1 per commit), whether or
	// not a subscriber received that notification.
	Coalesced uint64
	// Plans counts committed plans, registrations included, indexed by
	// core.IncOutcome; they sum to the groups' Updates.
	Plans [core.IncKept + 1]uint64
	// TileVerifies and IndexAccesses sum those core.Stats counters over
	// the committed plans.
	TileVerifies, IndexAccesses uint64
}

// Counters sums every shard's counters.
func (e *Engine) Counters() Counters {
	var c Counters
	for _, sh := range e.shards {
		sh.mu.Lock()
		c.Queued += len(sh.ready) - sh.head
		sh.mu.Unlock()
		c.Abandoned += sh.abandoned.Load()
		c.Coalesced += sh.coalesced.Load()
		for o := range sh.plans {
			c.Plans[o] += sh.plans[o].Load()
		}
		c.TileVerifies += sh.verifies.Load()
		c.IndexAccesses += sh.accesses.Load()
	}
	return c
}

// Shed returns 0: the engine sheds no submission. It is kept only until
// the benchmark stops calling it (ROADMAP 9).
func (e *Engine) Shed() uint64 { return 0 }
