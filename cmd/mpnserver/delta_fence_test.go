package main

import (
	"io"
	"log"
	"math/rand"
	"net"
	"reflect"
	"testing"
	"time"

	"mpn/internal/core"
	"mpn/internal/faultinject"
	"mpn/internal/geom"
	"mpn/internal/proto"
)

// TestDeltaDifferentialFence is the acceptance fence of the delta
// protocol: for the same report stream, a delta-protocol client's
// reassembled plan must be byte-identical to a full-Notify client's at
// every step. Two groups with identical member locations run against
// one incremental server — group 1's clients negotiate
// deltas, group 2's force full frames — and after every notification
// round the decoded regions and meeting points are compared. The stream
// exercises kept (in-region report), partial (minimal escape), and full
// (result-set churn) outcomes, plus a forced reconnect mid-stream; the
// matrix covers both aggregates and both region shapes.
func TestDeltaDifferentialFence(t *testing.T) {
	for _, tc := range []struct{ method, agg string }{
		{"tiled", "max"},
		{"tiled", "sum"},
		{"circle", "max"},
		{"circle", "sum"},
	} {
		t.Run(tc.method+"/"+tc.agg, func(t *testing.T) {
			runDeltaFence(t, tc.method, tc.agg)
		})
	}
}

// fencePair is the same logical user in the delta group and the full
// group: identical start location, identical movement.
type fencePair struct {
	delta *e2eUser
	full  *e2eUser
}

func (p *fencePair) setLoc(loc geom.Point) {
	p.delta.setLoc(loc)
	p.full.setLoc(loc)
}

// rejoin brings a member whose connection was just closed back into her
// group: it dials and registers until the server accepts. The client's Run
// returning says nothing about the server, which may not have reaped the
// old connection yet; until it has, it refuses the TRegister ("user
// already in group"), which ends the new client's Run with that error —
// and, were the test to carry on, leaves the group incomplete for good.
// Acceptance shows as the notification of the re-completed group, which is
// put back for the caller's waitRound.
func rejoin(t *testing.T, size uint32, dial func() *e2eUser) *e2eUser {
	t.Helper()
	deadline := time.After(10 * time.Second)
	for {
		u := dial()
		if err := u.client.Register(size); err != nil {
			t.Fatal(err)
		}
		select {
		case p := <-u.notify:
			u.notify <- p
			return u
		case <-u.runErr:
			u.conn.Close()
			time.Sleep(2 * time.Millisecond)
		case <-deadline:
			t.Fatal("server never accepted the re-registration")
		}
	}
}

func runDeltaFence(t *testing.T, method, agg string) {
	rng := rand.New(rand.NewSource(17))
	pois := make([]geom.Point, 800)
	for i := range pois {
		pois[i] = geom.Pt(rng.Float64(), rng.Float64())
	}
	srv, err := newServer(serverConfig{
		pois: pois, method: method, agg: agg,
		alpha: 5, buffer: 20, shards: 2, workers: 1,
		incremental: true,
		logger:      log.New(io.Discard, "", 0),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.close()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() { _ = srv.serve(ln) }()
	addr := ln.Addr().String()

	starts := []geom.Point{geom.Pt(0.30, 0.30), geom.Pt(0.35, 0.32), geom.Pt(0.31, 0.36)}
	m := len(starts)
	pairs := make([]*fencePair, m)
	dialDelta := func(i int, start geom.Point) *e2eUser { return dialUser(t, addr, 1, uint32(i), start) }
	dialFull := func(i int, start geom.Point) *e2eUser {
		return dialUser(t, addr, 2, uint32(i), start, proto.WithoutDelta())
	}
	for i, s := range starts {
		pairs[i] = &fencePair{delta: dialDelta(i, s), full: dialFull(i, s)}
	}
	for _, p := range pairs {
		if err := p.delta.client.Register(uint32(m)); err != nil {
			t.Fatal(err)
		}
		if err := p.full.client.Register(uint32(m)); err != nil {
			t.Fatal(err)
		}
	}

	// waitRound consumes one notification per client in both groups and
	// compares the reassembled plans pairwise.
	waitRound := func(step string) {
		t.Helper()
		for i, p := range pairs {
			dm := p.delta.waitNotify(t)
			fm := p.full.waitNotify(t)
			if dm != fm {
				t.Fatalf("%s: member %d meeting diverged: delta %v vs full %v", step, i, dm, fm)
			}
			dr, fr := p.delta.client.Region(), p.full.client.Region()
			if !reflect.DeepEqual(dr, fr) {
				t.Fatalf("%s: member %d region diverged:\n delta %v\n full  %v", step, i, dr, fr)
			}
			if p.delta.client.Meeting() != p.full.client.Meeting() {
				t.Fatalf("%s: member %d retained meeting diverged", step, i)
			}
		}
	}
	waitRound("registration")

	// report makes the same member file the same report in both groups
	// (locations must be set on the pairs first).
	report := func(i int) {
		t.Helper()
		if err := pairs[i].delta.client.Report(); err != nil {
			t.Fatal(err)
		}
		if err := pairs[i].full.client.Report(); err != nil {
			t.Fatal(err)
		}
	}

	// Round 1 — kept: member 0 reports from a position still inside her
	// region (a spurious report; nothing regrows, deltas carry nothing).
	jit := geom.Pt(starts[0].X+1e-6, starts[0].Y-1e-6)
	if pairs[0].delta.client.NeedsUpdate(jit) {
		t.Skip("jitter escaped the region; workload unsuitable")
	}
	pairs[0].setLoc(jit)
	report(0)
	waitRound("kept")

	// Round 2 — minimal escape: walk member 0 just past her boundary
	// (partial regrow on the tile methods when the optimum survives).
	esc := jit
	step := 1e-4
	for !pairs[0].delta.client.NeedsUpdate(esc) {
		esc = geom.Pt(esc.X+step, esc.Y+step)
		step *= 2
		if step > 1 {
			t.Fatal("could not escape region")
		}
	}
	pairs[0].setLoc(esc)
	report(0)
	waitRound("partial")

	// Round 3 — churn: member 0 jumps far, moving the optimum (full
	// replan, every region regrows).
	far := geom.Pt(0.70, 0.70)
	pairs[0].setLoc(far)
	pairs[1].setLoc(geom.Pt(0.36, 0.33))
	pairs[2].setLoc(geom.Pt(0.30, 0.37))
	report(0)
	waitRound("full")

	// Round 4 — forced reconnect mid-stream: member 2 drops in both
	// groups and rejoins at her current location. Re-completion triggers
	// a replan round; the rejoined delta client must be repaired with a
	// full snapshot and stay byte-identical from then on.
	loc2 := geom.Pt(0.30, 0.37)
	pairs[2].delta.conn.Close()
	pairs[2].full.conn.Close()
	<-pairs[2].delta.runErr
	<-pairs[2].full.runErr
	pairs[2] = &fencePair{
		delta: rejoin(t, uint32(m), func() *e2eUser { return dialDelta(2, loc2) }),
		full:  rejoin(t, uint32(m), func() *e2eUser { return dialFull(2, loc2) }),
	}
	waitRound("reconnect")

	// Round 5 — kept after reconnect: everyone reports in place; the
	// rejoined client now rides deltas again and must stay identical.
	report(1)
	waitRound("kept-after-reconnect")
}

// TestStaleDeliveryAfterRejoin: a replan the engine finished for a group
// that has since dissolved and re-formed under the same gid and member ids
// must not reach the new incarnation. Both incarnations number their
// region epochs from 1, so nothing in the old plan marks it as old. The
// first delivery is held at the CoordDeliver failpoint while both members
// disconnect and re-register far away; released, it must be dropped as
// stale, and every client must keep the new registration plan.
func TestStaleDeliveryAfterRejoin(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	pois := make([]geom.Point, 800)
	for i := range pois {
		pois[i] = geom.Pt(rng.Float64(), rng.Float64())
	}
	srv, err := newServer(serverConfig{
		pois: pois, method: "circle", agg: "max",
		alpha: 5, buffer: 20, shards: 1, workers: 1,
		incremental: true,
		logger:      log.New(io.Discard, "", 0),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.close()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() { _ = srv.serve(ln) }()
	addr := ln.Addr().String()

	join := func(locs []geom.Point) []*e2eUser {
		users := make([]*e2eUser, len(locs))
		for i, loc := range locs {
			users[i] = dialUser(t, addr, 1, uint32(i), loc)
			if err := users[i].client.Register(uint32(len(locs))); err != nil {
				t.Fatal(err)
			}
		}
		for _, u := range users {
			u.waitNotify(t)
		}
		return users
	}
	users := join([]geom.Point{geom.Pt(0.30, 0.30), geom.Pt(0.35, 0.32)})

	// Hold the first delivery until the group has re-formed.
	held, release := make(chan struct{}), make(chan struct{})
	faultinject.Arm(faultinject.Script{faultinject.CoordDeliver: func(hit uint64) faultinject.Effect {
		if hit == 1 {
			close(held)
			<-release
		}
		return faultinject.Effect{}
	}})
	t.Cleanup(faultinject.Disarm)
	t.Cleanup(func() {
		select {
		case <-release:
		default:
			close(release)
		}
	})

	users[0].setLoc(geom.Pt(0.70, 0.70))
	if err := users[0].client.Report(); err != nil {
		t.Fatal(err)
	}
	select {
	case <-held:
	case <-time.After(10 * time.Second):
		t.Fatal("the replan never reached the coordinator")
	}

	for _, u := range users {
		u.conn.Close()
		<-u.runErr
	}
	deadline := time.Now().Add(10 * time.Second)
	for srv.coord.NumGroups() != 0 {
		if time.Now().After(deadline) {
			t.Fatal("the group never dissolved")
		}
		time.Sleep(time.Millisecond)
	}
	moved := []geom.Point{geom.Pt(0.80, 0.15), geom.Pt(0.82, 0.18)}
	users = join(moved)
	meetings := make([]geom.Point, len(users))
	regions := make([]core.SafeRegion, len(users))
	for i, u := range users {
		meetings[i], regions[i] = u.client.Meeting(), u.client.Region()
	}

	close(release)
	deadline = time.Now().Add(10 * time.Second)
	for srv.coord.Stats().StaleDeliveries == 0 {
		for i, u := range users {
			select {
			case p := <-u.notify:
				t.Fatalf("member %d received the old group's plan (meeting %v)", i, p)
			default:
			}
		}
		if time.Now().After(deadline) {
			t.Fatal("the held delivery was neither dropped nor sent")
		}
		time.Sleep(time.Millisecond)
	}
	for i, u := range users {
		if u.client.Meeting() != meetings[i] || !reflect.DeepEqual(u.client.Region(), regions[i]) {
			t.Fatalf("member %d lost the registration plan: meeting %v, want %v", i, u.client.Meeting(), meetings[i])
		}
		if !u.client.Region().Contains(moved[i]) {
			t.Fatalf("member %d: region misses her location %v", i, moved[i])
		}
	}
}
