package proto

import (
	"bytes"
	"encoding/hex"
	"io"
	"math"
	"math/rand"
	"net"
	"reflect"
	"sync"
	"testing"
	"time"

	"mpn/internal/core"
	"mpn/internal/geom"
	"mpn/internal/gnn"
)

// --- codec -----------------------------------------------------------------

func TestMessageRoundTrip(t *testing.T) {
	msgs := []Message{
		{Type: TRegister, Group: 7, User: 2, GroupSize: 3, Flags: FlagDeltaCapable, Loc: geom.Pt(0.25, 0.5)},
		{Type: TReport, Group: 1, User: 0, Loc: geom.Pt(-1, 2)},
		{Type: TProbe, Group: 9, User: 4},
		{Type: TProbeReply, Group: 9, User: 4, Loc: geom.Pt(0.1, 0.9)},
		{Type: TNotify, Group: 3, User: 1, Epoch: 42, Meeting: geom.Pt(0.4, 0.6), Region: []byte{1, 2, 3, 4}},
		{Type: TNack, Group: 3, User: 1, Epoch: 41},
		{Type: TError, Group: 3, Text: "boom"},
	}
	var buf bytes.Buffer
	for _, m := range msgs {
		if err := Write(&buf, m); err != nil {
			t.Fatal(err)
		}
	}
	for _, want := range msgs {
		got, err := Read(&buf)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("round trip mismatch:\n got %+v\nwant %+v", got, want)
		}
	}
}

// TestFrameGoldenBytes pins exact frames, length prefix included. These
// layouts are fixed; the benchmark's frame sniffer (bench/trace.go), for
// one, decodes delta frames by hand.
func TestFrameGoldenBytes(t *testing.T) {
	for _, tc := range []struct {
		m    Message
		want string
	}{
		{Message{Type: TNotifyDelta, Group: 3, User: 1, Epoch: 5},
			"06000000070301000500"},
		{Message{Type: TNotifyDelta, Group: 3, User: 1, Epoch: 5, MeetingChanged: true, Meeting: geom.Pt(0.25, 0.75)},
			"160000000703010105000000000000d03f000000000000e83f00"},
		{Message{Type: TNotifyDelta, Group: 3, User: 1, Epoch: 6, Region: []byte{'C', 1, 2}},
			"09000000070301000603430102"},
		{Message{Type: TPing, Epoch: 42}, "02000000092a"},
		{Message{Type: TPong, Epoch: 1 << 40}, "070000000a808080808020"},
		{Message{Type: TPeers, Epoch: 3, Peers: []string{"primary:9000", "standby:9001"}},
			"1d0000000d03020c7072696d6172793a393030300c7374616e6462793a39303031"},
		{Message{Type: TPeers}, "030000000d0000"},
		{Message{Type: TProbe, Group: 200, User: 2}, "040000000bc80102"},
		{Message{Type: TProbeReply, Group: 200, User: 2, Loc: geom.Pt(0.125, -3.5)},
			"140000000cc80102000000000000c03f0000000000000cc0"},
	} {
		got, err := tc.m.AppendFrame(nil)
		if err != nil {
			t.Fatal(err)
		}
		if hex.EncodeToString(got) != tc.want {
			t.Errorf("%v frame\n got %x\nwant %s", tc.m.Type, got, tc.want)
		}
	}
	// A step-1 report carries group, user and location, nothing else.
	report, err := Message{Type: TReport, Group: 200, User: 2, Loc: geom.Pt(0.125, -3.5)}.AppendFrame(nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(report) != 24 {
		t.Fatalf("report frame is %d bytes, want 24", len(report))
	}
}

func TestReadErrors(t *testing.T) {
	// Truncated header.
	if _, err := Read(bytes.NewReader([]byte{1, 2})); err == nil {
		t.Fatal("truncated header accepted")
	}
	// Oversized frame length.
	var buf bytes.Buffer
	buf.Write([]byte{0xff, 0xff, 0xff, 0xff})
	if _, err := Read(&buf); err != ErrFrameTooLarge {
		t.Fatalf("want ErrFrameTooLarge got %v", err)
	}
	// Corrupt payload (bad type).
	var ok bytes.Buffer
	if err := Write(&ok, Message{Type: TReport}); err != nil {
		t.Fatal(err)
	}
	raw := ok.Bytes()
	raw[4] = 0xEE // type byte inside payload
	if _, err := Read(bytes.NewReader(raw)); err == nil {
		t.Fatal("corrupt type accepted")
	}
	// Truncated payload.
	if _, err := Read(bytes.NewReader(raw[:10])); err == nil {
		t.Fatal("truncated payload accepted")
	}
}

func TestMsgTypeString(t *testing.T) {
	for _, tt := range []MsgType{TRegister, TReport, TProbe, TProbeReply, TNotify, TError, MsgType(42)} {
		if tt.String() == "" {
			t.Fatal("empty string")
		}
	}
}

// --- region codec ------------------------------------------------------------

func TestRegionCodec(t *testing.T) {
	c := core.CircleRegion(geom.Pt(0.25, 0.75), 0.125)
	dec, err := DecodeRegion(EncodeRegion(c))
	if err != nil {
		t.Fatal(err)
	}
	if dec.Circle != c.Circle {
		t.Fatalf("circle mismatch: %v vs %v", dec.Circle, c.Circle)
	}
	tr := core.TileRegion(
		geom.RectAround(geom.Pt(0.5, 0.5), 0.01),
		geom.RectAround(geom.Pt(0.51, 0.5), 0.01),
	)
	dec, err = DecodeRegion(EncodeRegion(tr))
	if err != nil {
		t.Fatal(err)
	}
	if dec.NumTiles() != 2 {
		t.Fatalf("tiles=%d", dec.NumTiles())
	}
	if _, err := DecodeRegion([]byte{9, 9}); err == nil {
		t.Fatal("garbage region accepted")
	}
	// A circle that would contain nothing or everything is refused.
	nan, inf := math.NaN(), math.Inf(1)
	for _, bad := range []core.SafeRegion{
		core.CircleRegion(geom.Pt(nan, 0.5), 0.1),
		core.CircleRegion(geom.Pt(0.5, -inf), 0.1),
		core.CircleRegion(geom.Pt(0.5, 0.5), nan),
		core.CircleRegion(geom.Pt(0.5, 0.5), -0.1),
		core.CircleRegion(geom.Pt(0.5, 0.5), inf),
	} {
		if dec, err := DecodeRegion(EncodeRegion(bad)); err == nil {
			t.Errorf("circle %v accepted as %v", bad.Circle, dec.Circle)
		}
	}
}

// --- coordinator + client over net.Pipe -------------------------------------

// planFunc is the planner shape the tests wrap into a SubmitFunc.
type planFunc func(users []geom.Point) (geom.Point, []core.SafeRegion, error)

// newSyncCoordinator builds a coordinator over a backend that computes
// every plan inline and returns it with ok=true. A planner error is
// delivered off the submit path, which runs under the coordinator lock.
func newSyncCoordinator(plan planFunc) *Coordinator {
	var coord *Coordinator
	coord = NewAsyncCoordinator(func(gid uint32, ids []uint32, users []geom.Point) (geom.Point, []core.SafeRegion, []uint64, bool) {
		meeting, regions, err := plan(users)
		if err != nil {
			go coord.Deliver(gid, nil, nil, geom.Point{}, nil, err)
			return geom.Point{}, nil, nil, false
		}
		return meeting, regions, nil, true
	}, nil)
	return coord
}

// testPlan builds a planFunc over a small POI set.
func testPlan(t testing.TB, method string) planFunc {
	t.Helper()
	rng := rand.New(rand.NewSource(42))
	pois := make([]geom.Point, 500)
	for i := range pois {
		pois[i] = geom.Pt(rng.Float64(), rng.Float64())
	}
	opts := core.DefaultOptions()
	opts.Aggregate = gnn.Max
	opts.TileLimit = 5
	planner, err := core.NewPlanner(pois, opts)
	if err != nil {
		t.Fatal(err)
	}
	return func(users []geom.Point) (geom.Point, []core.SafeRegion, error) {
		kind := core.KindTiles
		if method == "circle" {
			kind = core.KindCircle
		}
		ws := core.GetWorkspace()
		defer core.PutWorkspace(ws)
		plan, _, perr := planner.Plan(ws, core.PlanRequest{Kind: kind, Users: users})
		if perr != nil {
			return geom.Point{}, nil, perr
		}
		return plan.Best.Item.P, plan.Regions, nil
	}
}

// testUser wires one client over a pipe to the coordinator.
type testUser struct {
	client   *Client
	conn     net.Conn
	loc      geom.Point
	locMu    sync.Mutex
	notifyCh chan geom.Point
	runErr   chan error
}

// disconnect severs the client's connection, as a crashed or departing
// user would.
func (u *testUser) disconnect() { _ = u.conn.Close() }

func newTestUser(t *testing.T, coord *Coordinator, group, user uint32, start geom.Point) *testUser {
	t.Helper()
	serverSide, clientSide := net.Pipe()
	go func() { _ = coord.ServeConn(serverSide) }()

	u := &testUser{conn: clientSide, loc: start, notifyCh: make(chan geom.Point, 16), runErr: make(chan error, 1)}
	cl, err := NewClient(clientSide, group, user,
		func() geom.Point {
			u.locMu.Lock()
			defer u.locMu.Unlock()
			return u.loc
		},
		func(meeting geom.Point, _ core.SafeRegion) {
			u.notifyCh <- meeting
		},
	)
	if err != nil {
		t.Fatal(err)
	}
	u.client = cl
	go func() { u.runErr <- cl.Run() }()
	t.Cleanup(func() { clientSide.Close() })
	return u
}

func (u *testUser) setLoc(p geom.Point) {
	u.locMu.Lock()
	u.loc = p
	u.locMu.Unlock()
}

func (u *testUser) waitNotify(t *testing.T) geom.Point {
	t.Helper()
	select {
	case p := <-u.notifyCh:
		return p
	case err := <-u.runErr:
		t.Fatalf("client stopped: %v", err)
	case <-time.After(5 * time.Second):
		t.Fatal("timed out waiting for notification")
	}
	return geom.Point{}
}

func TestEndToEndProtocol(t *testing.T) {
	coord := newSyncCoordinator(testPlan(t, "tile"))

	u1 := newTestUser(t, coord, 1, 0, geom.Pt(0.30, 0.30))
	u2 := newTestUser(t, coord, 1, 1, geom.Pt(0.35, 0.32))
	u3 := newTestUser(t, coord, 1, 2, geom.Pt(0.31, 0.36))
	users := []*testUser{u1, u2, u3}

	// Registration: the third register completes the group and everyone
	// gets the initial notification.
	for i, u := range users {
		if err := u.client.Register(3); err != nil {
			t.Fatalf("register %d: %v", i, err)
		}
	}
	first := make([]geom.Point, 3)
	for i, u := range users {
		first[i] = u.waitNotify(t)
	}
	if first[0] != first[1] || first[1] != first[2] {
		t.Fatalf("members notified of different meeting points: %v", first)
	}
	for i, u := range users {
		if u.client.NeedsUpdate(u.loc) {
			t.Fatalf("user %d's own location outside fresh region", i)
		}
		_ = u.client.Region()
		if u.client.Meeting() != first[i] {
			t.Fatal("Meeting() mismatch")
		}
	}

	// u1 escapes and reports: the probe round must reach u2/u3 and a new
	// notification must land everywhere.
	u1.setLoc(geom.Pt(0.70, 0.70))
	u2.setLoc(geom.Pt(0.36, 0.33))
	u3.setLoc(geom.Pt(0.30, 0.37))
	if err := u1.client.Report(); err != nil {
		t.Fatal(err)
	}
	second := make([]geom.Point, 3)
	for i, u := range users {
		second[i] = u.waitNotify(t)
	}
	if second[0] != second[1] || second[1] != second[2] {
		t.Fatalf("second round mismatch: %v", second)
	}
	if second[0] == first[0] {
		t.Log("meeting point unchanged after escape (allowed, but unusual for this jump)")
	}
	if coord.NumGroups() != 1 {
		t.Fatalf("groups=%d", coord.NumGroups())
	}
}

func TestCoordinatorRejectsBadRegistration(t *testing.T) {
	coord := newSyncCoordinator(testPlan(t, "circle"))
	serverSide, clientSide := net.Pipe()
	go func() { _ = coord.ServeConn(serverSide) }()
	defer clientSide.Close()

	// Zero group size.
	if err := Write(clientSide, Message{Type: TRegister, Group: 1, User: 0, GroupSize: 0}); err != nil {
		t.Fatal(err)
	}
	msg, err := Read(clientSide)
	if err != nil {
		t.Fatal(err)
	}
	if msg.Type != TError {
		t.Fatalf("want TError got %v", msg.Type)
	}

	// A flag bit other than FlagDeltaCapable: refused before any group
	// state exists, so the client cannot join as a member it did not ask
	// to be.
	if err := Write(clientSide, Message{Type: TRegister, Group: 1, User: 0, GroupSize: 2, Flags: FlagDeltaCapable | 1<<2}); err != nil {
		t.Fatal(err)
	}
	if msg, err = Read(clientSide); err != nil || msg.Type != TError {
		t.Fatalf("unknown register flag: %v %v", msg.Type, err)
	}
	if n := coord.NumGroups(); n != 0 {
		t.Fatalf("refused registration left %d groups", n)
	}

	// Report before register.
	if err := Write(clientSide, Message{Type: TReport, Group: 1, User: 0}); err != nil {
		t.Fatal(err)
	}
	if msg, err = Read(clientSide); err != nil || msg.Type != TError {
		t.Fatalf("report-before-register: %v %v", msg.Type, err)
	}
	if n := coord.Stats().ProtocolErrors; n != 3 {
		t.Fatalf("ProtocolErrors=%d, want 3", n)
	}
}

// TestCoordinatorRefusesNonFiniteLocation: a frame carrying a NaN or ±Inf
// location is answered with a TError and ends that connection; nothing is
// stored, and the rest of the group stays connected.
func TestCoordinatorRefusesNonFiniteLocation(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	goodLoc := geom.Pt(0.35, 0.32)
	cases := []struct {
		name string
		msg  Message // sent by user 0 on group 1
	}{
		{"register/NaN", Message{Type: TRegister, User: 0, GroupSize: 2, Loc: geom.Pt(nan, 0.3)}},
		{"register/-Inf", Message{Type: TRegister, User: 0, GroupSize: 2, Loc: geom.Pt(0.3, -inf)}},
		{"report/NaN", Message{Type: TReport, User: 0, Loc: geom.Pt(0.3, nan)}},
		{"report/+Inf", Message{Type: TReport, User: 0, Loc: geom.Pt(inf, 0.3)}},
		// Frames name their user themselves, so a reply can aim at another
		// member's stored location.
		{"probe-reply/NaN", Message{Type: TProbeReply, User: 1, Loc: geom.Pt(nan, nan)}},
		{"probe-reply/+Inf", Message{Type: TProbeReply, User: 1, Loc: geom.Pt(0.3, inf)}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			coord := newSyncCoordinator(testPlan(t, "circle"))
			dial := func() net.Conn {
				serverSide, clientSide := net.Pipe()
				go func() { _ = coord.ServeConn(serverSide) }()
				t.Cleanup(func() { clientSide.Close() })
				return clientSide
			}
			expect := func(conn net.Conn, want MsgType) {
				t.Helper()
				if msg, err := Read(conn); err != nil || msg.Type != want {
					t.Fatalf("want %v, got %v (err %v)", want, msg.Type, err)
				}
			}
			good, bad := dial(), dial()
			if err := Write(good, Message{Type: TRegister, Group: 1, User: 1, GroupSize: 2, Loc: goodLoc}); err != nil {
				t.Fatal(err)
			}
			if tc.msg.Type != TRegister {
				if err := Write(bad, Message{Type: TRegister, Group: 1, User: 0, GroupSize: 2, Loc: geom.Pt(0.3, 0.3)}); err != nil {
					t.Fatal(err)
				}
				expect(good, TNotify)
				expect(bad, TNotify)
			}

			tc.msg.Group = 1
			if err := Write(bad, tc.msg); err != nil {
				t.Fatal(err)
			}
			expect(bad, TError)
			if msg, err := Read(bad); err == nil {
				t.Fatalf("connection still open after a non-finite location: got %v", msg.Type)
			}

			// The other member is still served, and holds her own location.
			if err := Write(good, Message{Type: TPing, Epoch: 7}); err != nil {
				t.Fatal(err)
			}
			expect(good, TPong)
			coord.mu.Lock()
			g := coord.groups[1]
			_, badStored := g.members[0]
			stored := g.members[1].loc
			coord.mu.Unlock()
			if badStored || stored != goodLoc {
				t.Fatalf("refused frame left state behind: user 0 stored=%v, user 1 at %v", badStored, stored)
			}
		})
	}
}

func TestCoordinatorDuplicateUser(t *testing.T) {
	coord := newSyncCoordinator(testPlan(t, "circle"))
	a, b := net.Pipe()
	go func() { _ = coord.ServeConn(a) }()
	defer b.Close()

	reg := Message{Type: TRegister, Group: 5, User: 3, GroupSize: 2, Loc: geom.Pt(0.1, 0.1)}
	if err := Write(b, reg); err != nil {
		t.Fatal(err)
	}
	// The pipe write returns when the frame is consumed, not when the
	// registration is processed; wait for it to take effect so the second
	// connection is deterministically the duplicate.
	deadline := time.Now().Add(5 * time.Second)
	for coord.NumGroups() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("registration never took effect")
		}
		time.Sleep(time.Millisecond)
	}
	// Same user again on a second connection.
	a2, b2 := net.Pipe()
	go func() { _ = coord.ServeConn(a2) }()
	defer b2.Close()
	if err := Write(b2, reg); err != nil {
		t.Fatal(err)
	}
	msg, err := Read(b2)
	if err != nil {
		t.Fatal(err)
	}
	if msg.Type != TError {
		t.Fatalf("duplicate user not rejected: %v", msg.Type)
	}
}

func TestMemberDisconnectCleansUp(t *testing.T) {
	coord := newSyncCoordinator(testPlan(t, "circle"))
	a, b := net.Pipe()
	done := make(chan struct{})
	go func() { _ = coord.ServeConn(a); close(done) }()

	if err := Write(b, Message{Type: TRegister, Group: 8, User: 0, GroupSize: 2, Loc: geom.Pt(0.2, 0.2)}); err != nil {
		t.Fatal(err)
	}
	// Give the coordinator a moment to register, then disconnect.
	time.Sleep(50 * time.Millisecond)
	if coord.NumGroups() != 1 {
		t.Fatalf("groups=%d want 1", coord.NumGroups())
	}
	b.Close()
	<-done
	if coord.NumGroups() != 0 {
		t.Fatalf("groups=%d want 0 after disconnect", coord.NumGroups())
	}
}

// TestDepartureAbandonsProbeRound: a member leaving while her probe reply
// is the last one missing must not close the round — planning the m−1
// members left would plan a subgroup, and the server would retire the
// group's backend state for it. The round is abandoned; re-registration
// completes the group and replans all m.
func TestDepartureAbandonsProbeRound(t *testing.T) {
	plan := testPlan(t, "circle")
	var mu sync.Mutex
	var sizes []int // group size of every snapshot handed to the backend
	coord := NewAsyncCoordinator(func(gid uint32, ids []uint32, users []geom.Point) (geom.Point, []core.SafeRegion, []uint64, bool) {
		mu.Lock()
		sizes = append(sizes, len(ids))
		mu.Unlock()
		meeting, regions, err := plan(users)
		return meeting, regions, nil, err == nil
	}, nil)
	submitted := func() []int {
		mu.Lock()
		defer mu.Unlock()
		return append([]int(nil), sizes...)
	}
	// probing returns the group's outstanding probe replies and its member
	// count.
	probing := func() (int, int) {
		coord.mu.Lock()
		defer coord.mu.Unlock()
		g := coord.groups[1]
		return int(g.awaiting), len(g.members)
	}
	waitFor := func(what string, cond func() bool) {
		t.Helper()
		for deadline := time.Now().Add(5 * time.Second); !cond(); time.Sleep(time.Millisecond) {
			if time.Now().After(deadline) {
				t.Fatalf("timed out waiting for %s", what)
			}
		}
	}
	// silent registers user 2 over a raw connection that reads (and so
	// receives probes) but never replies.
	silent := func() net.Conn {
		serverSide, clientSide := net.Pipe()
		go func() { _ = coord.ServeConn(serverSide) }()
		t.Cleanup(func() { clientSide.Close() })
		go func() {
			for {
				if _, err := Read(clientSide); err != nil {
					return
				}
			}
		}()
		if err := Write(clientSide, Message{Type: TRegister, Group: 1, User: 2, GroupSize: 3, Loc: geom.Pt(0.31, 0.36)}); err != nil {
			t.Fatal(err)
		}
		return clientSide
	}

	u0 := newTestUser(t, coord, 1, 0, geom.Pt(0.30, 0.30))
	u1 := newTestUser(t, coord, 1, 1, geom.Pt(0.35, 0.32))
	for i, u := range []*testUser{u0, u1} {
		if err := u.client.Register(3); err != nil {
			t.Fatalf("register %d: %v", i, err)
		}
	}
	raw := silent()
	u0.waitNotify(t)
	u1.waitNotify(t)

	// User 0 escapes; user 1 answers her probe, user 2 never does.
	u0.setLoc(geom.Pt(0.70, 0.70))
	if err := u0.client.Report(); err != nil {
		t.Fatal(err)
	}
	waitFor("user 1's probe reply", func() bool { n, _ := probing(); return n == 1 })
	raw.Close()
	waitFor("user 2's departure", func() bool { _, m := probing(); return m == 2 })
	if got := submitted(); !reflect.DeepEqual(got, []int{3}) {
		t.Fatalf("backend snapshot sizes %v, want [3]: the departure planned the incomplete group", got)
	}

	// The returning member completes the group, which replans whole.
	silent()
	u0.waitNotify(t)
	u1.waitNotify(t)
	if got := submitted(); !reflect.DeepEqual(got, []int{3, 3}) {
		t.Fatalf("backend snapshot sizes %v, want [3 3]", got)
	}
}

func TestClientErrors(t *testing.T) {
	if _, err := NewClient(nil, 0, 0, nil, nil); err == nil {
		t.Fatal("nil LocFunc accepted")
	}
	// Server error frame terminates Run with an error.
	a, b := net.Pipe()
	cl, err := NewClient(b, 1, 1, func() geom.Point { return geom.Point{} }, nil)
	if err != nil {
		t.Fatal(err)
	}
	errCh := make(chan error, 1)
	go func() { errCh <- cl.Run() }()
	if err := Write(a, Message{Type: TError, Text: "nope"}); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-errCh:
		if err == nil {
			t.Fatal("Run swallowed server error")
		}
	case <-time.After(3 * time.Second):
		t.Fatal("timeout")
	}
	a.Close()
	b.Close()
}

func TestClientCleanEOF(t *testing.T) {
	a, b := net.Pipe()
	cl, _ := NewClient(b, 1, 1, func() geom.Point { return geom.Point{} }, nil)
	errCh := make(chan error, 1)
	go func() { errCh <- cl.Run() }()
	a.Close()
	select {
	case err := <-errCh:
		// net.Pipe close surfaces as io.ErrClosedPipe, not EOF; both are
		// acceptable terminations, but nil must mean EOF.
		_ = err
	case <-time.After(3 * time.Second):
		t.Fatal("timeout")
	}
}

var _ io.ReadWriteCloser = (net.Conn)(nil)

// A probe reply lost on the way must not stall the round for good: when a
// member the round does not await reports again, the members it still
// awaits are probed again, and the plan follows their answers. A member
// that already answered is not asked twice, and a reporter that keeps
// reporting re-probes only at the round's 1st, 2nd, 4th, 8th, … stray
// report, not at every one.
func TestLostProbeReplyIsAskedAgain(t *testing.T) {
	coord := newSyncCoordinator(testPlan(t, "circle"))
	locs := []geom.Point{geom.Pt(0.30, 0.30), geom.Pt(0.35, 0.32), geom.Pt(0.31, 0.36)}
	conns := make([]*rawConn, len(locs))
	for uid, loc := range locs {
		conns[uid] = dialRaw(t, coord)
		if err := Write(conns[uid].conn, Message{
			Type: TRegister, Group: 1, User: uint32(uid), GroupSize: 3, Loc: loc,
		}); err != nil {
			t.Fatal(err)
		}
	}
	expect := func(uid int, want MsgType) {
		t.Helper()
		if m := conns[uid].read(t); m.Type != want {
			t.Fatalf("user %d read %v, want %v", uid, m.Type, want)
		}
	}
	for uid := range conns {
		expect(uid, TNotify)
	}
	report := func() {
		t.Helper()
		if err := Write(conns[0].conn, Message{Type: TReport, Group: 1, User: 0, Loc: geom.Pt(0.5, 0.5)}); err != nil {
			t.Fatal(err)
		}
	}
	reply := func(uid int) {
		t.Helper()
		if err := Write(conns[uid].conn, Message{Type: TProbeReply, Group: 1, User: uint32(uid), Loc: locs[uid]}); err != nil {
			t.Fatal(err)
		}
	}
	report()
	expect(1, TProbe)
	expect(2, TProbe)
	reply(1) // user 2's replies are lost
	// The 9 stray reports re-probe at the 1st, 2nd, 4th and 8th.
	const reports, probes = 9, 4
	for range reports {
		report()
	}
	// A pong on the reporter's connection orders every report before it.
	if err := Write(conns[0].conn, Message{Type: TPing, Epoch: 7}); err != nil {
		t.Fatal(err)
	}
	expect(0, TPong)
	for range probes {
		expect(2, TProbe)
	}
	reply(2)
	for uid := range conns {
		expect(uid, TNotify) // user 1's next frame is the plan, not a probe
	}
}
