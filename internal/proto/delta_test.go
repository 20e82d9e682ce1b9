package proto

import (
	"bytes"
	"net"
	"reflect"
	"sync"
	"testing"
	"time"

	"mpn/internal/core"
	"mpn/internal/geom"
)

// --- codec -----------------------------------------------------------------

func TestDeltaFrameRoundTrip(t *testing.T) {
	region := EncodeRegion(core.CircleRegion(geom.Pt(0.2, 0.3), 0.05))
	msgs := []Message{
		// Steady-state kept frame: nothing but the epoch confirmation.
		{Type: TNotifyDelta, Group: 7, User: 2, Epoch: 9},
		// Meeting moved, region unchanged.
		{Type: TNotifyDelta, Group: 7, User: 2, Epoch: 9,
			MeetingChanged: true, Meeting: geom.Pt(0.4, 0.6)},
		// Changed region.
		{Type: TNotifyDelta, Group: 1, User: 0, Epoch: 4, Region: region},
		// Changed region and meeting, large ids and epoch.
		{Type: TNotifyDelta, Group: 1 << 30, User: 3, Epoch: 1 << 40,
			MeetingChanged: true, Meeting: geom.Pt(-1, 2), Region: region},
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
		if got.Type != want.Type || got.Group != want.Group || got.User != want.User ||
			got.Epoch != want.Epoch || got.MeetingChanged != want.MeetingChanged ||
			(want.MeetingChanged && got.Meeting != want.Meeting) ||
			!bytes.Equal(got.Region, want.Region) {
			t.Fatalf("delta round trip mismatch:\n got %+v\nwant %+v", got, want)
		}
	}
}

// TestClassicFrameFlagsEpochRoundTrip: the non-delta frames keep the
// Register flags, the Notify epoch and region, and the Nack epoch.
func TestClassicFrameFlagsEpochRoundTrip(t *testing.T) {
	msgs := []Message{
		{Type: TRegister, Group: 7, User: 2, GroupSize: 3, Flags: FlagDeltaCapable, Loc: geom.Pt(0.25, 0.5)},
		{Type: TNotify, Group: 3, User: 1, Epoch: 42, Meeting: geom.Pt(0.4, 0.6), Region: []byte{1, 2, 3}},
		{Type: TNack, Group: 3, User: 1, Epoch: 41},
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
		if got.Type != want.Type || got.Flags != want.Flags || got.Epoch != want.Epoch ||
			got.Group != want.Group || got.User != want.User || !bytes.Equal(got.Region, want.Region) {
			t.Fatalf("classic round trip mismatch:\n got %+v\nwant %+v", got, want)
		}
	}
}

// TestDeltaFrameCorruption: every truncation of a valid delta frame's
// payload, and several mutations, must fail cleanly.
func TestDeltaFrameCorruption(t *testing.T) {
	m := Message{Type: TNotifyDelta, Group: 5, User: 1, Epoch: 3,
		MeetingChanged: true, Meeting: geom.Pt(0.5, 0.5),
		Region: []byte{9, 9, 9}}
	frame, err := m.AppendFrame(nil)
	if err != nil {
		t.Fatal(err)
	}
	payload := frame[4:]
	for cut := 1; cut < len(payload); cut++ {
		if _, err := parsePayload(payload[:cut]); err == nil {
			// The region is length-prefixed and trailing bytes are
			// refused, so no strict prefix is a shorter valid frame.
			t.Fatalf("truncated delta payload (%d/%d bytes) accepted", cut, len(payload))
		}
	}
	// Unknown delta flags are rejected: deltaMeeting is the only bit.
	for _, fl := range []byte{0x80, 0x02} {
		mut := append([]byte(nil), payload...)
		// flags byte sits after type + uvarint(group=5) + uvarint(user=1).
		mut[3] = fl
		if _, err := parsePayload(mut); err == nil {
			t.Fatalf("unknown delta flags %#x accepted", fl)
		}
	}
	// Absurd region length is rejected.
	bad := []byte{byte(TNotifyDelta), 5, 1, 0, 3, 0xff, 0xff, 0xff, 0xff, 0x0f}
	if _, err := parsePayload(bad); err == nil {
		t.Fatal("absurd region length accepted")
	}
}

// TestCircleEncodingIs25Bytes pins the circle region wire size the
// package doc promises: one tag byte plus three little-endian float64s.
func TestCircleEncodingIs25Bytes(t *testing.T) {
	enc := EncodeRegion(core.CircleRegion(geom.Pt(0.125, 0.75), 0.0625))
	if len(enc) != 25 {
		t.Fatalf("encoded circle is %d bytes, want 25", len(enc))
	}
	if enc[0] != 'C' {
		t.Fatalf("circle tag %q, want 'C'", enc[0])
	}
	dec, err := DecodeRegion(enc)
	if err != nil {
		t.Fatal(err)
	}
	if dec.Kind != core.KindCircle || dec.Circle.C != geom.Pt(0.125, 0.75) || dec.Circle.R != 0.0625 {
		t.Fatalf("decoded %+v", dec)
	}
}

// TestDeltaKeptFrameIsTiny pins the steady-state win: a kept-path delta
// frame (nothing changed) must be an order of magnitude smaller than the
// equivalent full notify carrying a region.
func TestDeltaKeptFrameIsTiny(t *testing.T) {
	kept := Message{Type: TNotifyDelta, Group: 3, User: 1, Epoch: 5}
	frame, err := kept.AppendFrame(nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(frame) > 16 {
		t.Fatalf("kept delta frame is %d bytes, want ≤ 16", len(frame))
	}
	full := Message{Type: TNotify, Group: 3, User: 1, Epoch: 5,
		Meeting: geom.Pt(0.5, 0.5),
		Region:  EncodeRegion(core.CircleRegion(geom.Pt(0.5, 0.5), 0.1))}
	fullFrame, err := full.AppendFrame(nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(fullFrame) < 5*len(frame) {
		t.Fatalf("full frame %dB vs kept delta %dB: expected ≥5× headroom", len(fullFrame), len(frame))
	}
}

// --- coordinator delta delivery --------------------------------------------

// scriptedBackend is a SubmitFunc whose registrations return a fixed
// plan inline and whose steady-state submissions are recorded; the test
// then drives Deliver by hand.
type scriptedBackend struct {
	mu      sync.Mutex
	regions []core.SafeRegion
	meeting geom.Point
	submits int
}

func (b *scriptedBackend) submit(gid uint32, ids []uint32, users []geom.Point) (geom.Point, []core.SafeRegion, []uint64, bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.submits++
	if len(b.regions) != len(ids) {
		return geom.Point{}, nil, nil, false
	}
	return b.meeting, b.regions, nil, true
}

// rawConn registers over a pipe without the Client state machine, so the
// test observes exact frame types and sizes.
type rawConn struct {
	conn  net.Conn
	count *countingConn
}

type countingConn struct {
	net.Conn
	mu   sync.Mutex
	read int
}

func (c *countingConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.mu.Lock()
	c.read += n
	c.mu.Unlock()
	return n, err
}

func (c *countingConn) ReadCount() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.read
}

func dialRaw(t *testing.T, coord *Coordinator) *rawConn {
	t.Helper()
	serverSide, clientSide := net.Pipe()
	go func() { _ = coord.ServeConn(serverSide) }()
	cc := &countingConn{Conn: clientSide}
	t.Cleanup(func() { clientSide.Close() })
	return &rawConn{conn: clientSide, count: cc}
}

func (r *rawConn) read(t *testing.T) Message {
	t.Helper()
	_ = r.conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	m, err := Read(r.count)
	if err != nil {
		t.Fatalf("read frame: %v", err)
	}
	_ = r.conn.SetReadDeadline(time.Time{})
	return m
}

// drain reads frames until the connection goes quiet, returning how many
// frames it consumed.
func (r *rawConn) drain(t *testing.T) int {
	t.Helper()
	n := 0
	for {
		_ = r.conn.SetReadDeadline(time.Now().Add(300 * time.Millisecond))
		if _, err := Read(r.count); err != nil {
			_ = r.conn.SetReadDeadline(time.Time{})
			return n
		}
		n++
	}
}

func circleRegions(n int) []core.SafeRegion {
	out := make([]core.SafeRegion, n)
	for i := range out {
		out[i] = core.CircleRegion(geom.Pt(0.1*float64(i+1), 0.2), 0.05)
	}
	return out
}

// TestCoordinatorDeltaKeptAndChanged walks the wire protocol through
// registration (full), a kept update (region-less delta), a changed
// region (delta carrying it), and a meeting move.
func TestCoordinatorDeltaKeptAndChanged(t *testing.T) {
	backend := &scriptedBackend{
		regions: circleRegions(1),
		meeting: geom.Pt(0.5, 0.5),
	}
	coord := NewAsyncCoordinator(backend.submit, nil)

	rc := dialRaw(t, coord)
	if err := Write(rc.conn, Message{
		Type: TRegister, Group: 1, User: 0, GroupSize: 1,
		Flags: FlagDeltaCapable, Loc: geom.Pt(0.1, 0.2),
	}); err != nil {
		t.Fatal(err)
	}
	reg := rc.read(t)
	if reg.Type != TNotify || reg.Epoch != 1 || len(reg.Region) == 0 {
		t.Fatalf("registration frame %+v", reg)
	}

	// Kept plan: same epochs, same meeting → region-less delta.
	before := rc.count.ReadCount()
	coord.Deliver(1, []uint32{0}, nil, backend.meeting, backend.regions, nil)
	kept := rc.read(t)
	if kept.Type != TNotifyDelta || kept.Epoch != 1 || kept.Region != nil || kept.MeetingChanged {
		t.Fatalf("kept frame %+v", kept)
	}
	if sz := rc.count.ReadCount() - before; sz > 16 {
		t.Fatalf("kept delta consumed %d wire bytes, want ≤ 16", sz)
	}

	// Changed region: epoch advances, the region travels.
	newRegions := []core.SafeRegion{core.CircleRegion(geom.Pt(0.11, 0.2), 0.04)}
	coord.Deliver(1, []uint32{0}, nil, backend.meeting, newRegions, nil)
	chg := rc.read(t)
	if chg.Type != TNotifyDelta || chg.Epoch != 2 || !bytes.Equal(chg.Region, EncodeRegion(newRegions[0])) {
		t.Fatalf("changed frame %+v", chg)
	}

	// Meeting moves while the region stays: delta with meeting, no region.
	moved := geom.Pt(0.51, 0.5)
	coord.Deliver(1, []uint32{0}, nil, moved, newRegions, nil)
	mm := rc.read(t)
	if mm.Type != TNotifyDelta || !mm.MeetingChanged || mm.Meeting != moved || mm.Region != nil {
		t.Fatalf("meeting frame %+v", mm)
	}
}

// TestCoordinatorDeltaNotNegotiated: a client without FlagDeltaCapable
// receives full frames forever.
func TestCoordinatorDeltaNotNegotiated(t *testing.T) {
	backend := &scriptedBackend{regions: circleRegions(1), meeting: geom.Pt(0.5, 0.5)}
	coord := NewAsyncCoordinator(backend.submit, nil)
	rc := dialRaw(t, coord)
	if err := Write(rc.conn, Message{Type: TRegister, Group: 1, User: 0, GroupSize: 1, Loc: geom.Pt(0.1, 0.2)}); err != nil {
		t.Fatal(err)
	}
	if m := rc.read(t); m.Type != TNotify {
		t.Fatalf("registration frame %v", m.Type)
	}
	coord.Deliver(1, []uint32{0}, nil, backend.meeting, backend.regions, nil)
	if m := rc.read(t); m.Type != TNotify {
		t.Fatalf("kept update frame %v, want full TNotify without negotiation", m.Type)
	}
}

// TestCoordinatorNackRepair: a TNack is answered with a full TNotify
// carrying the group's latest distributed plan.
func TestCoordinatorNackRepair(t *testing.T) {
	backend := &scriptedBackend{regions: circleRegions(1), meeting: geom.Pt(0.5, 0.5)}
	coord := NewAsyncCoordinator(backend.submit, nil)
	rc := dialRaw(t, coord)
	if err := Write(rc.conn, Message{
		Type: TRegister, Group: 1, User: 0, GroupSize: 1,
		Flags: FlagDeltaCapable, Loc: geom.Pt(0.1, 0.2),
	}); err != nil {
		t.Fatal(err)
	}
	reg := rc.read(t)

	if err := Write(rc.conn, Message{Type: TNack, Group: 1, User: 0, Epoch: 1}); err != nil {
		t.Fatal(err)
	}
	repair := rc.read(t)
	if repair.Type != TNotify || repair.Epoch != 1 || !bytes.Equal(repair.Region, reg.Region) {
		t.Fatalf("nack repair frame %+v", repair)
	}

	// The repair reset delivered-state; the next kept delivery is a delta
	// again.
	coord.Deliver(1, []uint32{0}, nil, backend.meeting, backend.regions, nil)
	if m := rc.read(t); m.Type != TNotifyDelta {
		t.Fatalf("post-repair frame %v", m.Type)
	}
}

// TestCoordinatorShipsOnlyChangedRegions: the coordinator compares each
// member's region with the one it last encoded for her. An equal region —
// the same tiles, or a fresh copy of them — rides a region-less delta at
// her current epoch; a changed one ships its bytes at epoch + 1. A plan
// the coordinator never delivered (here a stale one) leaves the cache as
// it was, so a region that changes back to the cached one ships nothing
// new, while one that returns to a region sent before the cached one is
// new again (epochs never repeat). A NACK is repaired from the cache.
func TestCoordinatorShipsOnlyChangedRegions(t *testing.T) {
	tiles := func(x float64) core.SafeRegion {
		return core.TileRegion(geom.RectAround(geom.Pt(x, 0.2), 0.01), geom.RectAround(geom.Pt(x+0.01, 0.2), 0.01))
	}
	copyOf := func(rs ...core.SafeRegion) []core.SafeRegion {
		out := make([]core.SafeRegion, len(rs))
		for i, r := range rs {
			out[i] = core.TileRegion(append([]geom.Rect(nil), r.Tiles...)...)
		}
		return out
	}
	planA := []core.SafeRegion{tiles(0.1), tiles(0.3)}
	planB := []core.SafeRegion{tiles(0.5), planA[1]} // only u0's region changes
	backend := &scriptedBackend{regions: planA, meeting: geom.Pt(0.5, 0.5)}
	coord := NewAsyncCoordinator(backend.submit, nil)
	conns := []*rawConn{dialRaw(t, coord), dialRaw(t, coord)}
	for uid, rc := range conns {
		if err := Write(rc.conn, Message{
			Type: TRegister, Group: 4, User: uint32(uid), GroupSize: 2,
			Flags: FlagDeltaCapable, Loc: geom.Pt(0.1, 0.2),
		}); err != nil {
			t.Fatal(err)
		}
	}
	epochs := make([]uint64, len(conns))
	for uid, rc := range conns {
		reg := rc.read(t)
		if reg.Type != TNotify || reg.Epoch != 1 || !bytes.Equal(reg.Region, EncodeRegion(planA[uid])) {
			t.Fatalf("u%d registration frame %+v", uid, reg)
		}
		epochs[uid] = reg.Epoch
	}
	for _, step := range []struct {
		name    string
		stale   []core.SafeRegion // delivered first under ids that do not match
		plan    []core.SafeRegion
		changed [2]bool
	}{
		{name: "the same regions again", plan: planA},
		{name: "fresh copies of them", plan: copyOf(planA...)},
		{name: "u0's region changes", plan: planB, changed: [2]bool{true, false}},
		{name: "u0's region changes back to the cached one", stale: planA, plan: copyOf(planB...)},
		{name: "u0 returns to the region sent before", plan: planA, changed: [2]bool{true, false}},
	} {
		if step.stale != nil {
			coord.Deliver(4, []uint32{0, 9}, nil, backend.meeting, step.stale, nil)
		}
		coord.Deliver(4, []uint32{0, 1}, nil, backend.meeting, step.plan, nil)
		for uid, rc := range conns {
			m := rc.read(t)
			want, region := epochs[uid], []byte(nil)
			if step.changed[uid] {
				want, region = want+1, EncodeRegion(step.plan[uid])
			}
			if m.Type != TNotifyDelta || m.Epoch != want || !bytes.Equal(m.Region, region) {
				t.Fatalf("%s: u%d got %v epoch %d region %x, want a delta at epoch %d carrying %x",
					step.name, uid, m.Type, m.Epoch, m.Region, want, region)
			}
			epochs[uid] = m.Epoch
		}
	}
	if got := coord.Stats().StaleDeliveries; got != 1 {
		t.Fatalf("StaleDeliveries = %d, want 1", got)
	}

	if err := Write(conns[0].conn, Message{Type: TNack, Group: 4, User: 0, Epoch: epochs[0]}); err != nil {
		t.Fatal(err)
	}
	repair := conns[0].read(t)
	coord.mu.Lock()
	cached := coord.groups[4].members[0].enc
	coord.mu.Unlock()
	if repair.Type != TNotify || repair.Epoch != epochs[0] || repair.Meeting != backend.meeting ||
		!bytes.Equal(repair.Region, EncodeRegion(planA[0])) || !bytes.Equal(repair.Region, cached.data) {
		t.Fatalf("nack repair %+v, want a full frame of the cached %x at epoch %d", repair, cached.data, epochs[0])
	}
	if got := coord.Stats().NackRepairs; got != 1 {
		t.Fatalf("NackRepairs = %d, want 1", got)
	}
}

// TestCoordinatorReconnectGetsFullSnapshot: a member that drops and
// rejoins mid-stream must receive a full TNotify (never a delta) on the
// next delivery, while the member that stayed keeps receiving deltas.
func TestCoordinatorReconnectGetsFullSnapshot(t *testing.T) {
	backend := &scriptedBackend{regions: circleRegions(2), meeting: geom.Pt(0.5, 0.5)}
	coord := NewAsyncCoordinator(backend.submit, nil)

	reg := func(rc *rawConn, user uint32) {
		t.Helper()
		if err := Write(rc.conn, Message{
			Type: TRegister, Group: 2, User: user, GroupSize: 2,
			Flags: FlagDeltaCapable, Loc: geom.Pt(0.1*float64(user+1), 0.2),
		}); err != nil {
			t.Fatal(err)
		}
	}
	rc0 := dialRaw(t, coord)
	rc1 := dialRaw(t, coord)
	reg(rc0, 0)
	reg(rc1, 1)
	if m := rc0.read(t); m.Type != TNotify {
		t.Fatalf("u0 registration frame %v", m.Type)
	}
	if m := rc1.read(t); m.Type != TNotify {
		t.Fatalf("u1 registration frame %v", m.Type)
	}

	// Steady state: both on deltas.
	coord.Deliver(2, []uint32{0, 1}, nil, backend.meeting, backend.regions, nil)
	if m := rc0.read(t); m.Type != TNotifyDelta {
		t.Fatalf("u0 steady frame %v", m.Type)
	}
	if m := rc1.read(t); m.Type != TNotifyDelta {
		t.Fatalf("u1 steady frame %v", m.Type)
	}

	// User 1 reconnects.
	rc1.conn.Close()
	waitGroupsSize(t, coord, 2, 1)
	rc1b := dialRaw(t, coord)
	reg(rc1b, 1)
	waitGroupsSize(t, coord, 2, 2)
	// Re-completion triggered a replan; our backend answers inline with
	// the registration path, so user 1's first frame after rejoining is
	// the inline full notify. Deliver one more steady-state plan: user 1
	// must get a FULL frame if its inline notify had not happened (it
	// did), and user 0 stays on deltas either way.
	if m := rc1b.read(t); m.Type != TNotify {
		t.Fatalf("rejoined member's first frame %v, want full TNotify", m.Type)
	}
	// The re-registration replan also notified user 0 (inline submit
	// path); as an established delta member it stays on deltas.
	if m := rc0.read(t); m.Type != TNotifyDelta {
		t.Fatalf("u0 frame during rejoin %v", m.Type)
	}
	coord.Deliver(2, []uint32{0, 1}, nil, backend.meeting, backend.regions, nil)
	if m := rc0.read(t); m.Type != TNotifyDelta {
		t.Fatalf("u0 post-rejoin frame %v", m.Type)
	}
	if m := rc1b.read(t); m.Type != TNotifyDelta {
		t.Fatalf("u1 post-rejoin steady frame %v", m.Type)
	}
}

// waitGroupsSize waits until group gid has want members.
func waitGroupsSize(t *testing.T, c *Coordinator, gid uint32, want int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		c.mu.Lock()
		g := c.groups[gid]
		n := 0
		if g != nil {
			n = len(g.members)
		}
		c.mu.Unlock()
		if n == want {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("group %d never reached %d members (have %d)", gid, want, n)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestCoordinatorDroppedFrameForcesFullRepair: when a member's outbox
// overflows and a notification is dropped, the coordinator must not
// assume the client holds the latest state — the next delivered frame
// after the drop is a full TNotify even though nothing changed.
func TestCoordinatorDroppedFrameForcesFullRepair(t *testing.T) {
	backend := &scriptedBackend{regions: circleRegions(1), meeting: geom.Pt(0.5, 0.5)}
	coord := NewAsyncCoordinator(backend.submit, nil)
	// Kicks off: the overflow below must only coalesce, not disconnect,
	// so the post-drop repair path can be observed on a live member.
	coord.SetSlowClientLimit(-1)
	rc := dialRaw(t, coord)
	if err := Write(rc.conn, Message{
		Type: TRegister, Group: 1, User: 0, GroupSize: 1,
		Flags: FlagDeltaCapable, Loc: geom.Pt(0.1, 0.2),
	}); err != nil {
		t.Fatal(err)
	}
	waitGroups(t, coord, 1)
	// Do not read: the writer goroutine blocks on the first frame (the
	// registration notify) and the outbox absorbs deltas until it
	// overflows; everything past that is dropped and flips needFull.
	for i := 0; i < outboxSize+8; i++ {
		coord.Deliver(1, []uint32{0}, nil, backend.meeting, backend.regions, nil)
	}
	// Drain everything queued so far (the exact count depends on whether
	// the writer goroutine held a frame when the outbox filled).
	drained := rc.drain(t)
	if drained < outboxSize || drained > outboxSize+2 {
		t.Fatalf("drained %d frames from a %d-slot outbox", drained, outboxSize)
	}
	// Nothing changed, but the drop must force a full frame now.
	coord.Deliver(1, []uint32{0}, nil, backend.meeting, backend.regions, nil)
	m := rc.read(t)
	if m.Type != TNotify {
		t.Fatalf("post-drop frame %v, want full TNotify repair", m.Type)
	}
	// And once repaired, deltas resume.
	coord.Deliver(1, []uint32{0}, nil, backend.meeting, backend.regions, nil)
	if m := rc.read(t); m.Type != TNotifyDelta {
		t.Fatalf("post-repair frame %v", m.Type)
	}
}

// --- client state machine ---------------------------------------------------

// TestClientDeltaStateMachine feeds the client raw frames and checks the
// retained plan, the NACK emission, and the callback cadence.
func TestClientDeltaStateMachine(t *testing.T) {
	server, clientSide := net.Pipe()
	defer server.Close()
	notifies := make(chan core.SafeRegion, 16)
	cl, err := NewClient(clientSide, 1, 0,
		func() geom.Point { return geom.Pt(0.1, 0.1) },
		func(_ geom.Point, r core.SafeRegion) { notifies <- r },
	)
	if err != nil {
		t.Fatal(err)
	}
	runErr := make(chan error, 1)
	go func() { runErr <- cl.Run() }()
	defer clientSide.Close()

	// A delta before any full plan must be NACKed and not applied.
	if err := Write(server, Message{Type: TNotifyDelta, Group: 1, User: 0, Epoch: 3}); err != nil {
		t.Fatal(err)
	}
	nack, err := Read(server)
	if err != nil {
		t.Fatal(err)
	}
	if nack.Type != TNack || nack.User != 0 {
		t.Fatalf("want TNack, got %+v", nack)
	}
	select {
	case <-notifies:
		t.Fatal("unappliable delta invoked the callback")
	default:
	}

	// Full frame establishes the plan.
	region := core.CircleRegion(geom.Pt(0.1, 0.1), 0.2)
	if err := Write(server, Message{
		Type: TNotify, Group: 1, User: 0, Epoch: 3,
		Meeting: geom.Pt(0.5, 0.5), Region: EncodeRegion(region),
	}); err != nil {
		t.Fatal(err)
	}
	got := <-notifies
	if !reflect.DeepEqual(got, region) || cl.Epoch() != 3 {
		t.Fatalf("full frame applied %+v epoch %d", got, cl.Epoch())
	}

	// Kept delta at the matching epoch: callback fires, region retained.
	if err := Write(server, Message{Type: TNotifyDelta, Group: 1, User: 0, Epoch: 3}); err != nil {
		t.Fatal(err)
	}
	if got := <-notifies; !reflect.DeepEqual(got, region) {
		t.Fatalf("kept delta changed the region: %+v", got)
	}

	// Epoch-gap delta without a region: NACK, state untouched.
	if err := Write(server, Message{Type: TNotifyDelta, Group: 1, User: 0, Epoch: 5}); err != nil {
		t.Fatal(err)
	}
	if nack, err = Read(server); err != nil || nack.Type != TNack {
		t.Fatalf("gap: want TNack, got %+v err %v", nack, err)
	}
	if cl.Epoch() != 3 || !reflect.DeepEqual(cl.Region(), region) {
		t.Fatal("gap delta mutated client state")
	}

	// Delta with a region: applied, epoch advances, meeting rides along.
	region2 := core.CircleRegion(geom.Pt(0.12, 0.1), 0.15)
	if err := Write(server, Message{
		Type: TNotifyDelta, Group: 1, User: 0, Epoch: 6,
		MeetingChanged: true, Meeting: geom.Pt(0.6, 0.6),
		Region: EncodeRegion(region2),
	}); err != nil {
		t.Fatal(err)
	}
	if got := <-notifies; !reflect.DeepEqual(got, region2) {
		t.Fatalf("region delta applied %+v", got)
	}
	if cl.Epoch() != 6 || cl.Meeting() != geom.Pt(0.6, 0.6) {
		t.Fatalf("region delta state: epoch %d meeting %v", cl.Epoch(), cl.Meeting())
	}
	select {
	case err := <-runErr:
		t.Fatalf("client stopped: %v", err)
	default:
	}
}

// TestCoordinatorSameSizeChurnShipsFreshRegions: when membership changes
// without changing the group size, a member who stays can move to another
// slot of the plan. Her region is still compared with the one last sent
// to her, never with her slot's: after the churn she receives her fresh
// region's bytes, and a newcomer gets a full frame. A member who stays
// and whose region did not change gets a region-less delta.
func TestCoordinatorSameSizeChurnShipsFreshRegions(t *testing.T) {
	regionsA := circleRegions(2)
	backend := &scriptedBackend{regions: regionsA, meeting: geom.Pt(0.5, 0.5)}
	coord := NewAsyncCoordinator(backend.submit, nil)

	reg := func(rc *rawConn, user uint32) {
		t.Helper()
		if err := Write(rc.conn, Message{
			Type: TRegister, Group: 6, User: user, GroupSize: 2,
			Flags: FlagDeltaCapable, Loc: geom.Pt(0.1*float64(user+1), 0.2),
		}); err != nil {
			t.Fatal(err)
		}
	}
	// join replaces leaver with a newcomer while backend answers the
	// re-completion replan with plan, and checks the newcomer's full frame.
	join := func(leaver *rawConn, user uint32, plan []core.SafeRegion, slot int) *rawConn {
		t.Helper()
		leaver.conn.Close()
		waitGroupsSize(t, coord, 6, 1)
		backend.mu.Lock()
		backend.regions = plan
		backend.mu.Unlock()
		rc := dialRaw(t, coord)
		reg(rc, user)
		if m := rc.read(t); m.Type != TNotify || m.Epoch != 1 || !bytes.Equal(m.Region, EncodeRegion(plan[slot])) {
			t.Fatalf("joining member u%d frame %+v", user, m)
		}
		return rc
	}
	rc1 := dialRaw(t, coord)
	rc7 := dialRaw(t, coord)
	reg(rc1, 1)
	reg(rc7, 7)
	if m := rc1.read(t); m.Type != TNotify {
		t.Fatalf("u1 registration frame %v", m.Type)
	}
	if m := rc7.read(t); m.Type != TNotify || m.Epoch != 1 {
		t.Fatalf("u7 registration frame %+v", m)
	}
	coord.Deliver(6, []uint32{1, 7}, nil, backend.meeting, regionsA, nil)
	if m := rc1.read(t); m.Type != TNotifyDelta {
		t.Fatalf("u1 steady frame %v", m.Type)
	}
	if m := rc7.read(t); m.Type != TNotifyDelta || m.Epoch != 1 || m.Region != nil {
		t.Fatalf("u7 steady frame %+v", m)
	}

	// u1 leaves, u9 joins: u7 moves from slot 1 to slot 0, whose region
	// is new to her. She must receive it.
	regionsB := []core.SafeRegion{
		core.CircleRegion(geom.Pt(0.7, 0.7), 0.03), // u7's fresh region, NOT regionsA[1]
		core.CircleRegion(geom.Pt(0.72, 0.71), 0.03),
	}
	rc9 := join(rc1, 9, regionsB, 1)
	if m := rc7.read(t); m.Type != TNotifyDelta || m.Epoch != 2 || !bytes.Equal(m.Region, EncodeRegion(regionsB[0])) {
		t.Fatalf("continuing member after same-size churn got %+v, want a delta at epoch 2 carrying her fresh region", m)
	}

	// u9 leaves, u3 joins: u7 moves back to slot 1 and keeps her region,
	// so nothing needs to travel to her.
	regionsC := []core.SafeRegion{core.CircleRegion(geom.Pt(0.69, 0.7), 0.02), regionsB[0]}
	join(rc9, 3, regionsC, 0)
	if m := rc7.read(t); m.Type != TNotifyDelta || m.Epoch != 2 || m.Region != nil {
		t.Fatalf("continuing member with an unchanged region got %+v, want a region-less delta at epoch 2", m)
	}
}
