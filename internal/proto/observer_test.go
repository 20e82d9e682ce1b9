package proto

import (
	"bytes"
	"net"
	"testing"
	"time"

	"mpn/internal/core"
	"mpn/internal/geom"
)

// obsUpdate is one observer callback delivery.
type obsUpdate struct {
	meeting geom.Point
	regions map[uint32]core.SafeRegion
}

// testObserver wires an AsObserver client over a pipe to the coordinator.
type testObserver struct {
	client   *Client
	updates  chan obsUpdate
	runErr   chan error
	connSide net.Conn
}

func newTestObserver(t *testing.T, coord *Coordinator, group, user uint32) *testObserver {
	t.Helper()
	serverSide, clientSide := net.Pipe()
	go func() { _ = coord.ServeConn(serverSide) }()

	o := &testObserver{updates: make(chan obsUpdate, 16), runErr: make(chan error, 1), connSide: clientSide}
	cl, err := NewClient(clientSide, group, user,
		func() geom.Point { return geom.Point{} },
		nil,
		AsObserver(),
		WithGroupNotify(func(meeting geom.Point, regions map[uint32]core.SafeRegion) {
			o.updates <- obsUpdate{meeting: meeting, regions: regions}
		}),
	)
	if err != nil {
		t.Fatal(err)
	}
	o.client = cl
	go func() { o.runErr <- cl.Run() }()
	t.Cleanup(func() { clientSide.Close() })
	return o
}

func (o *testObserver) waitUpdate(t *testing.T) obsUpdate {
	t.Helper()
	select {
	case u := <-o.updates:
		return u
	case err := <-o.runErr:
		t.Fatalf("observer stopped: %v", err)
	case <-time.After(5 * time.Second):
		t.Fatal("timed out waiting for observer update")
	}
	return obsUpdate{}
}

// sameRegion compares two safe regions by wire encoding (SafeRegion is
// not comparable — tile regions hold slices).
func sameRegion(a, b core.SafeRegion) bool {
	return bytes.Equal(EncodeRegion(a), EncodeRegion(b))
}

// TestObserverEndToEnd: an observer subscribed before the group forms
// receives the group's first plan — every member's region in one frame —
// and tracks subsequent replans; its retained state always converges to
// what the members themselves hold.
func TestObserverEndToEnd(t *testing.T) {
	coord := newSyncCoordinator(testPlan(t, "tile"))

	obs := newTestObserver(t, coord, 1, 100)
	if err := obs.client.Register(2); err != nil {
		t.Fatal(err)
	}

	u1 := newTestUser(t, coord, 1, 0, geom.Pt(0.30, 0.30))
	u2 := newTestUser(t, coord, 1, 1, geom.Pt(0.35, 0.32))
	for i, u := range []*testUser{u1, u2} {
		if err := u.client.Register(2); err != nil {
			t.Fatalf("register %d: %v", i, err)
		}
	}
	m1 := u1.waitNotify(t)
	u2.waitNotify(t)

	first := obs.waitUpdate(t)
	if first.meeting != m1 {
		t.Fatalf("observer meeting %v, members got %v", first.meeting, m1)
	}
	if len(first.regions) != 2 {
		t.Fatalf("observer got %d regions, want 2", len(first.regions))
	}
	if !sameRegion(first.regions[0], u1.client.Region()) || !sameRegion(first.regions[1], u2.client.Region()) {
		t.Fatal("observer regions differ from members' own")
	}

	// A replan reaches the observer too, and its retained map converges
	// to the members' fresh regions.
	u1.setLoc(geom.Pt(0.70, 0.70))
	if err := u1.client.Report(); err != nil {
		t.Fatal(err)
	}
	u1.waitNotify(t)
	u2.waitNotify(t)

	deadline := time.After(5 * time.Second)
	for {
		r0, ok0 := obs.client.MemberRegion(0)
		r1, ok1 := obs.client.MemberRegion(1)
		if ok0 && ok1 && sameRegion(r0, u1.client.Region()) && sameRegion(r1, u2.client.Region()) {
			break
		}
		select {
		case <-deadline:
			t.Fatal("observer state never converged after replan")
		case <-time.After(5 * time.Millisecond):
		}
	}
	if n := coord.Stats().ObserverFrames; n < 2 {
		t.Fatalf("ObserverFrames=%d, want >=2", n)
	}
}

// TestObserverLateSubscription: an observer that subscribes after the
// group distributed a plan is caught up immediately from the encoding
// cache — no replan, no member traffic.
func TestObserverLateSubscription(t *testing.T) {
	coord := newSyncCoordinator(testPlan(t, "circle"))

	u1 := newTestUser(t, coord, 7, 0, geom.Pt(0.40, 0.40))
	u2 := newTestUser(t, coord, 7, 1, geom.Pt(0.45, 0.42))
	for _, u := range []*testUser{u1, u2} {
		if err := u.client.Register(2); err != nil {
			t.Fatal(err)
		}
	}
	u1.waitNotify(t)
	u2.waitNotify(t)

	obs := newTestObserver(t, coord, 7, 200)
	if err := obs.client.Register(2); err != nil {
		t.Fatal(err)
	}
	up := obs.waitUpdate(t)
	if up.meeting != u1.client.Meeting() {
		t.Fatalf("late observer meeting %v, members hold %v", up.meeting, u1.client.Meeting())
	}
	if len(up.regions) != 2 ||
		!sameRegion(up.regions[0], u1.client.Region()) ||
		!sameRegion(up.regions[1], u2.client.Region()) {
		t.Fatal("late observer catch-up does not match member state")
	}
}

// TestObserverTornDownWithGroup: when the last member leaves, the group
// dissolves and the observer's connection is closed by the server — an
// observer cannot outlive its group and silently watch a future group
// under a reused id.
func TestObserverTornDownWithGroup(t *testing.T) {
	coord := newSyncCoordinator(testPlan(t, "circle"))

	obs := newTestObserver(t, coord, 3, 50)
	if err := obs.client.Register(1); err != nil {
		t.Fatal(err)
	}
	u1 := newTestUser(t, coord, 3, 0, geom.Pt(0.50, 0.50))
	if err := u1.client.Register(1); err != nil {
		t.Fatal(err)
	}
	u1.waitNotify(t)
	obs.waitUpdate(t)

	// The only member disconnects: group dissolves, observer gets kicked.
	u1.disconnect()
	select {
	case <-obs.runErr:
		// Run returned (EOF or closed pipe) — the server tore us down.
	case <-time.After(5 * time.Second):
		t.Fatal("observer connection survived group dissolution")
	}
	waitGroups(t, coord, 0)
}

// TestObserverOnlyGroupGC: an observer subscribed to a group whose
// members never arrive does not leak the group when it disconnects.
func TestObserverOnlyGroupGC(t *testing.T) {
	coord := newSyncCoordinator(testPlan(t, "circle"))

	obs := newTestObserver(t, coord, 9, 1)
	if err := obs.client.Register(4); err != nil {
		t.Fatal(err)
	}
	waitGroups(t, coord, 1)
	obs.connSide.Close()
	waitGroups(t, coord, 0)
}

// TestObserverDuplicateIDRejected: a user id may not be both a member
// and an observer of the same group — disconnect routing would be
// ambiguous otherwise. Whichever registers second is refused. Register
// returns once the frame is written, not once the coordinator applied it,
// so each case waits for the first registration to land before the
// second is sent.
func TestObserverDuplicateIDRejected(t *testing.T) {
	// registered waits until user 0 is in group 4 as a member or an
	// observer.
	registered := func(t *testing.T, coord *Coordinator, observer bool) {
		t.Helper()
		deadline := time.Now().Add(5 * time.Second)
		for {
			coord.mu.Lock()
			var ok bool
			if g := coord.groups[4]; g != nil && observer {
				_, ok = g.observers[0]
			} else if g != nil {
				_, ok = g.members[0]
			}
			coord.mu.Unlock()
			if ok {
				return
			}
			if time.Now().After(deadline) {
				t.Fatalf("user 0 never registered in group 4 (observer=%v)", observer)
			}
			time.Sleep(time.Millisecond)
		}
	}
	refused := func(t *testing.T, runErr chan error, who string) {
		t.Helper()
		select {
		case err := <-runErr:
			if err == nil {
				t.Fatalf("duplicate-id %s registration not rejected", who)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("no rejection for duplicate-id %s", who)
		}
	}

	t.Run("member first", func(t *testing.T) {
		coord := newSyncCoordinator(testPlan(t, "circle"))
		u1 := newTestUser(t, coord, 4, 0, geom.Pt(0.40, 0.40))
		if err := u1.client.Register(2); err != nil {
			t.Fatal(err)
		}
		registered(t, coord, false)
		obs := newTestObserver(t, coord, 4, 0) // same uid as the member
		if err := obs.client.Register(2); err != nil {
			t.Fatal(err)
		}
		refused(t, obs.runErr, "observer")
	})

	t.Run("observer first", func(t *testing.T) {
		coord := newSyncCoordinator(testPlan(t, "circle"))
		obs := newTestObserver(t, coord, 4, 0)
		if err := obs.client.Register(2); err != nil {
			t.Fatal(err)
		}
		registered(t, coord, true)
		u1 := newTestUser(t, coord, 4, 0, geom.Pt(0.40, 0.40)) // same uid as the observer
		if err := u1.client.Register(2); err != nil {
			t.Fatal(err)
		}
		refused(t, u1.runErr, "member")
	})
}
