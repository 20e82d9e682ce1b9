package proto

import (
	"errors"
	"slices"
	"testing"
	"time"

	"mpn/internal/core"
	"mpn/internal/geom"
)

func TestAsyncEndToEnd(t *testing.T) {
	// The submit hook adapts the synchronous test planner into the
	// SubmitFunc + Deliver shape the engine-backed server uses:
	// submissions return immediately and results come back on a separate
	// goroutine. The closure captures coord, assigned below, before any
	// connection can trigger a replan.
	plan := testPlan(t, "tile")
	var coord *Coordinator
	coord = NewAsyncCoordinator(func(gid uint32, ids []uint32, users []geom.Point) (geom.Point, []core.SafeRegion, []uint64, bool) {
		users = slices.Clone(users) // valid only during the call
		go func() {
			meeting, regions, err := plan(users)
			coord.Deliver(gid, ids, nil, meeting, regions, err)
		}()
		return geom.Point{}, nil, nil, false
	}, nil)

	u1 := newTestUser(t, coord, 5, 0, geom.Pt(0.30, 0.30))
	u2 := newTestUser(t, coord, 5, 1, geom.Pt(0.35, 0.32))
	for i, u := range []*testUser{u1, u2} {
		if err := u.client.Register(2); err != nil {
			t.Fatalf("register %d: %v", i, err)
		}
	}
	first1, first2 := u1.waitNotify(t), u2.waitNotify(t)
	if first1 != first2 {
		t.Fatalf("members notified of different meeting points: %v %v", first1, first2)
	}
	if u1.client.NeedsUpdate(u1.loc) {
		t.Fatal("fresh region misses its own user")
	}

	// An escape report flows submit → deliver → notify.
	u1.setLoc(geom.Pt(0.72, 0.70))
	u2.setLoc(geom.Pt(0.36, 0.33))
	if err := u1.client.Report(); err != nil {
		t.Fatal(err)
	}
	second1, second2 := u1.waitNotify(t), u2.waitNotify(t)
	if second1 != second2 {
		t.Fatalf("second round mismatch: %v %v", second1, second2)
	}
	if coord.NumGroups() != 1 {
		t.Fatalf("groups=%d", coord.NumGroups())
	}
}

// TestSubmitInlineResult covers the registration fast path: the backend
// returns the plan synchronously (ok=true) and members are notified
// inline, with no Deliver round trip.
func TestSubmitInlineResult(t *testing.T) {
	coord := newSyncCoordinator(testPlan(t, "tile"))
	u1 := newTestUser(t, coord, 4, 0, geom.Pt(0.3, 0.3))
	u2 := newTestUser(t, coord, 4, 1, geom.Pt(0.34, 0.31))
	if err := u1.client.Register(2); err != nil {
		t.Fatal(err)
	}
	if err := u2.client.Register(2); err != nil {
		t.Fatal(err)
	}
	if p1, p2 := u1.waitNotify(t), u2.waitNotify(t); p1 != p2 {
		t.Fatalf("inline delivery diverged: %v %v", p1, p2)
	}
	if u1.client.NeedsUpdate(geom.Pt(0.3, 0.3)) {
		t.Fatal("inline region misses its own user")
	}
}

func TestDeliverStaleOrUnknownDropped(t *testing.T) {
	var coord *Coordinator
	coord = NewAsyncCoordinator(func(gid uint32, ids []uint32, users []geom.Point) (geom.Point, []core.SafeRegion, []uint64, bool) {
		return geom.Point{}, nil, nil, false
	}, nil)

	// Unknown group: no-op.
	coord.Deliver(99, nil, nil, geom.Pt(0.5, 0.5), nil, nil)

	u1 := newTestUser(t, coord, 1, 0, geom.Pt(0.3, 0.3))
	if err := u1.client.Register(1); err != nil {
		t.Fatal(err)
	}
	// The submit hook above dropped the replan; deliver stale results:
	// one whose region count doesn't match the membership, one computed
	// for a different member set (same size, different ids).
	deadline := time.Now().Add(5 * time.Second)
	for coord.NumGroups() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("group never formed")
		}
		time.Sleep(time.Millisecond)
	}
	coord.Deliver(1, nil, nil, geom.Pt(0.5, 0.5), make([]core.SafeRegion, 3), nil)
	coord.Deliver(1, []uint32{7}, nil, geom.Pt(0.5, 0.5),
		[]core.SafeRegion{core.CircleRegion(geom.Pt(0.5, 0.5), 0.1)}, nil)
	select {
	case p := <-u1.notifyCh:
		t.Fatalf("stale delivery notified members: %v", p)
	case <-time.After(100 * time.Millisecond):
	}
}

func TestDeliverError(t *testing.T) {
	var coord *Coordinator
	coord = NewAsyncCoordinator(func(gid uint32, ids []uint32, users []geom.Point) (geom.Point, []core.SafeRegion, []uint64, bool) {
		go func() {
			coord.Deliver(gid, nil, nil, geom.Point{}, nil, errors.New("planner exploded"))
		}()
		return geom.Point{}, nil, nil, false
	}, nil)

	u1 := newTestUser(t, coord, 2, 0, geom.Pt(0.3, 0.3))
	if err := u1.client.Register(1); err != nil {
		t.Fatal(err)
	}
	// The client surfaces the server error by stopping Run.
	select {
	case err := <-u1.runErr:
		if err == nil {
			t.Fatal("client stopped without the server error")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("no error notification")
	}
}
