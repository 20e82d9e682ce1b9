package engine

import (
	"errors"
	"reflect"
	"sync"
	"testing"

	"mpn/internal/core"
	"mpn/internal/faultinject"
	"mpn/internal/geom"
)

// commitRecord is one Journal.GroupCommitted call, arguments copied.
type commitRecord struct {
	tag   any
	users []geom.Point
	dirs  []core.Direction
}

// recordingJournal keeps every journal call in arrival order. removedCh,
// when set, is signalled from inside GroupRemoved — i.e. once the group
// is flagged removed and before Unregister goes on to wait for the
// group's in-flight plan.
type recordingJournal struct {
	mu        sync.Mutex
	commits   []commitRecord
	removed   []any
	removedCh chan struct{}
}

func (j *recordingJournal) GroupCommitted(tag any, users []geom.Point, dirs []core.Direction) {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.commits = append(j.commits, commitRecord{
		tag:   tag,
		users: append([]geom.Point(nil), users...),
		dirs:  append([]core.Direction(nil), dirs...),
	})
}

func (j *recordingJournal) GroupRemoved(tag any) {
	j.mu.Lock()
	j.removed = append(j.removed, tag)
	j.mu.Unlock()
	if j.removedCh != nil {
		j.removedCh <- struct{}{}
	}
}

// commitsExcept returns the recorded commits of every group but the one
// registered under skip.
func (j *recordingJournal) commitsExcept(skip any) []commitRecord {
	j.mu.Lock()
	defer j.mu.Unlock()
	var out []commitRecord
	for _, c := range j.commits {
		if c.tag != skip {
			out = append(out, c)
		}
	}
	return out
}

// holdPlan arms the EnginePlan failpoint so that the n-th planner call
// from now parks until release is closed; entered is closed once it has.
func holdPlan(t *testing.T, n uint64) (entered, release chan struct{}) {
	t.Helper()
	entered, release = make(chan struct{}), make(chan struct{})
	faultinject.Arm(faultinject.Script{faultinject.EnginePlan: func(hit uint64) faultinject.Effect {
		if hit == n {
			close(entered)
			<-release
		}
		return faultinject.Effect{}
	}})
	t.Cleanup(faultinject.Disarm)
	return entered, release
}

// commitStream is the location stream TestUpdateAndSubmitShareOneCommit
// replays: a duplicate report, one member's stride, a whole-group
// teleport and a duplicate of that, followed by a three-snapshot burst.
var (
	commitStart  = []geom.Point{geom.Pt(0.40, 0.40), geom.Pt(0.44, 0.42), geom.Pt(0.42, 0.45)}
	commitStream = [][]geom.Point{
		commitStart,
		{geom.Pt(0.37, 0.38), geom.Pt(0.44, 0.42), geom.Pt(0.42, 0.45)},
		{geom.Pt(0.80, 0.78), geom.Pt(0.84, 0.80), geom.Pt(0.82, 0.83)},
		{geom.Pt(0.80, 0.78), geom.Pt(0.84, 0.80), geom.Pt(0.82, 0.83)},
	}
	commitBurst = [][]geom.Point{
		{geom.Pt(0.20, 0.20), geom.Pt(0.24, 0.22), geom.Pt(0.22, 0.25)},
		{geom.Pt(0.60, 0.20), geom.Pt(0.64, 0.22), geom.Pt(0.62, 0.25)},
		{geom.Pt(0.30, 0.70), geom.Pt(0.34, 0.72), geom.Pt(0.32, 0.75)},
	}
	commitLast = []geom.Point{geom.Pt(0.31, 0.71), geom.Pt(0.34, 0.72), geom.Pt(0.32, 0.75)}
)

// driveCommits replays the stream through one entry point — the
// synchronous Update, or SubmitTag plus the subscription — and returns
// the group's notifications and journal records. The burst is two queued
// snapshots behind a parked worker plus a newest third: submitted, the
// worker recomputes once over it; passed to Update, it supersedes the
// queued pair. Either way one recomputation covers three submissions.
func driveCommits(t *testing.T, incremental, async bool) ([]Notification, []commitRecord) {
	t.Helper()
	pl := testPlanner(t, 400, 31)
	j := &recordingJournal{}
	opts := Options{Shards: 1, Workers: 1, Journal: j}
	if incremental {
		opts.Replan = PlannerKindIncFunc(pl, core.KindTiles, nil)
	}
	e := NewWS(tilePlan(pl), opts)
	defer e.Close()
	sub := e.Subscribe(64)

	decoyLocs := []geom.Point{geom.Pt(0.9, 0.1)}
	decoy, err := e.RegisterTag(decoyLocs, nil, "decoy")
	if err != nil {
		t.Fatal(err)
	}
	id, err := e.RegisterTag(commitStart, nil, "main")
	if err != nil {
		t.Fatal(err)
	}
	var got []Notification
	next := func() {
		t.Helper()
		for {
			if n := nextNotification(t, sub); n.Group == id {
				got = append(got, n)
				return
			}
		}
	}
	report := func(locs []geom.Point, tag any) {
		t.Helper()
		var err error
		if async {
			err = e.SubmitTag(id, locs, nil, tag)
		} else {
			err = e.Update(id, locs, nil)
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	next() // the registration plan
	for _, locs := range commitStream {
		report(locs, nil)
		next()
	}

	entered, release := holdPlan(t, 1)
	if err := e.Submit(decoy, decoyLocs, nil); err != nil {
		t.Fatal(err)
	}
	<-entered
	for _, locs := range commitBurst[:2] {
		if err := e.Submit(id, locs, nil); err != nil {
			t.Fatal(err)
		}
	}
	report(commitBurst[2], nil)
	close(release)
	next()
	e.quiesce(t)

	report(commitLast, "covering")
	next()
	return got, j.commitsExcept("decoy")
}

// TestUpdateAndSubmitShareOneCommit is the fence that the synchronous and
// the asynchronous entry point run the same recompute-and-commit routine:
// the same location stream through either yields the same notifications
// and the same journal records, on incremental and non-incremental
// engines alike.
func TestUpdateAndSubmitShareOneCommit(t *testing.T) {
	for _, tc := range []struct {
		name        string
		incremental bool
	}{{"incremental", true}, {"non-incremental", false}} {
		t.Run(tc.name, func(t *testing.T) {
			syncN, syncJ := driveCommits(t, tc.incremental, false)
			asyncN, asyncJ := driveCommits(t, tc.incremental, true)

			steps := 1 + len(commitStream) + 1 + 1
			if len(syncN) != steps || len(asyncN) != steps {
				t.Fatalf("notifications: sync %d async %d, want %d", len(syncN), len(asyncN), steps)
			}
			reused := false
			for i := range syncN {
				s, a := syncN[i], asyncN[i]
				if s.Err != nil || a.Err != nil {
					t.Fatalf("step %d: errors %v / %v", i, s.Err, a.Err)
				}
				if s.Seq != uint64(i+1) || a.Seq != s.Seq {
					t.Fatalf("step %d: Seq sync %d async %d", i, s.Seq, a.Seq)
				}
				if s.Meeting != a.Meeting || s.Changed != a.Changed || s.Outcome != a.Outcome {
					t.Fatalf("step %d: sync (%v %v %v) async (%v %v %v)", i,
						s.Meeting, s.Changed, s.Outcome, a.Meeting, a.Changed, a.Outcome)
				}
				if !reflect.DeepEqual(s.Regions, a.Regions) {
					t.Fatalf("step %d: regions differ between entry points", i)
				}
				wantCovered := 1
				if i == 1+len(commitStream) {
					wantCovered = len(commitBurst)
				}
				if s.Coalesced != wantCovered || a.Coalesced != wantCovered {
					t.Fatalf("step %d: Coalesced sync %d async %d, want %d", i, s.Coalesced, a.Coalesced, wantCovered)
				}
				if i > 0 && s.Outcome != core.IncFull {
					reused = true
				}
			}
			if reused != tc.incremental {
				t.Fatalf("kept/partial outcomes seen: %v on an engine with incremental=%v", reused, tc.incremental)
			}
			// Tags are the one thing the entry points may not share: Update
			// has none, so only the tagged SubmitTag carries (and journals
			// under) its own.
			last := steps - 1
			if syncN[last].Tag != nil || asyncN[last].Tag != "covering" {
				t.Fatalf("last step tags: sync %v async %v", syncN[last].Tag, asyncN[last].Tag)
			}

			if len(syncJ) != steps || len(asyncJ) != steps {
				t.Fatalf("journal records: sync %d async %d, want %d", len(syncJ), len(asyncJ), steps)
			}
			for i := range syncJ {
				if !reflect.DeepEqual(syncJ[i].users, asyncJ[i].users) || !reflect.DeepEqual(syncJ[i].dirs, asyncJ[i].dirs) {
					t.Fatalf("journal record %d: sync %+v async %+v", i, syncJ[i], asyncJ[i])
				}
				wantTag := any("main") // untagged commits fall back to the registration tag
				if syncJ[i].tag != wantTag {
					t.Fatalf("journal record %d: sync tag %v", i, syncJ[i].tag)
				}
				if i == last {
					wantTag = "covering"
				}
				if asyncJ[i].tag != wantTag {
					t.Fatalf("journal record %d: async tag %v, want %v", i, asyncJ[i].tag, wantTag)
				}
			}
			if want := commitBurst[len(commitBurst)-1]; !reflect.DeepEqual(syncJ[1+len(commitStream)].users, want) {
				t.Fatalf("burst committed %v, want the newest snapshot %v", syncJ[1+len(commitStream)].users, want)
			}
		})
	}
}

// TestUpdateRacingUnregister: a group unregistered while its synchronous
// plan is computing is gone — Update reports it like Submit does instead
// of committing into the orphaned state, and nothing is journaled or
// emitted for it.
func TestUpdateRacingUnregister(t *testing.T) {
	pl := testPlanner(t, 300, 32)
	j := &recordingJournal{removedCh: make(chan struct{}, 1)}
	e := NewWS(tilePlan(pl), Options{Shards: 1, Journal: j})
	defer e.Close()
	users := []geom.Point{geom.Pt(0.4, 0.4), geom.Pt(0.44, 0.4)}
	id, err := e.RegisterTag(users, nil, "g")
	if err != nil {
		t.Fatal(err)
	}
	st := e.lookup(id)
	sub := e.Subscribe(8)

	entered, release := holdPlan(t, 1)
	updated := make(chan error, 1)
	go func() { updated <- e.Update(id, []geom.Point{geom.Pt(0.7, 0.7), geom.Pt(0.74, 0.7)}, nil) }()
	<-entered
	unregistered := make(chan struct{})
	go func() {
		e.Unregister(id)
		close(unregistered)
	}()
	<-j.removedCh
	close(release)
	if err := <-updated; !errors.Is(err, ErrUnknownGroup) {
		t.Fatalf("Update of a group unregistered mid-plan: %v, want ErrUnknownGroup", err)
	}
	<-unregistered

	if got := j.commitsExcept(nil); len(got) != 1 {
		t.Fatalf("journal has %d commits, want the registration alone: %+v", len(got), got)
	}
	if len(j.removed) != 1 || j.removed[0] != "g" {
		t.Fatalf("journal removals %v", j.removed)
	}
	select {
	case n := <-sub.C:
		t.Fatalf("notification emitted for a removed group: %+v", n)
	default:
	}
	st.mu.Lock()
	seq := st.seq
	st.mu.Unlock()
	if seq != 1 {
		t.Fatalf("orphaned state committed to Seq %d", seq)
	}
}

// After a group's first commit, a submission and the worker's commit of
// it allocate nothing: SubmitTag refills the snapshot the worker handed
// back, the run queue reuses its slots, and a pointer tag is not boxed.
// The planner returns one fixed plan, so only the engine is measured.
func TestSubmitAllocatesNothing(t *testing.T) {
	regions := make([]core.SafeRegion, 3)
	plan := func(_ *core.Workspace, users []geom.Point, _ []core.Direction) (geom.Point, []core.SafeRegion, core.Stats, error) {
		return users[0], regions, core.Stats{}, nil
	}
	e := NewWS(plan, Options{Shards: 1, Workers: 1})
	defer e.Close()
	committed := make(chan struct{}, 1)
	e.Observe(func(Notification) { committed <- struct{}{} })
	users := threeUsers()
	tag := new(int)
	id, err := e.RegisterAsync(users, nil, tag)
	if err != nil {
		t.Fatal(err)
	}
	<-committed
	submit := func() {
		if err := e.SubmitTag(id, users, nil, tag); err != nil {
			t.Fatal(err)
		}
		<-committed
	}
	submit()
	if n := testing.AllocsPerRun(100, submit); n != 0 {
		t.Fatalf("a submission and its commit allocate %.1f times, want 0", n)
	}
}
