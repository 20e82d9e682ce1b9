package proto

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"log"
	"net"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"mpn/internal/core"
	"mpn/internal/geom"
)

// A client that never reads must not wedge the coordinator: notifications
// queue in the member outbox (dropping when full) while the lock stays
// available. This is the regression test for the synchronous-transport
// deadlock where replanLocked blocked on a pipe write while holding the
// coordinator mutex.
func TestSlowClientDoesNotBlockCoordinator(t *testing.T) {
	coord := newSyncCoordinator(testPlan(t, "circle"))
	// Kicks off: this test is about lock liveness under sustained drops,
	// so the slow client must survive the whole flood.
	coord.SetSlowClientLimit(-1)
	serverSide, clientSide := net.Pipe()
	go func() { _ = coord.ServeConn(serverSide) }()
	defer clientSide.Close()

	// Single-user group: registration triggers an immediate notify, and
	// every report triggers another. The client deliberately never reads,
	// so the member writer blocks on its first frame and the outbox
	// absorbs the rest.
	if err := Write(clientSide, Message{
		Type: TRegister, Group: 1, User: 0, GroupSize: 1, Loc: geom.Pt(0.2, 0.2),
	}); err != nil {
		t.Fatal(err)
	}
	waitGroups(t, coord, 1)

	// Flood far more reports than the outbox holds. Each Write is
	// consumed by ServeConn's read loop; if the coordinator ever held its
	// lock while writing, this loop would deadlock.
	done := make(chan error, 1)
	go func() {
		for i := 0; i < 2*outboxSize; i++ {
			if err := Write(clientSide, Message{
				Type: TReport, Group: 1, User: 0,
				Loc: geom.Pt(0.2+float64(i)*1e-5, 0.2),
			}); err != nil {
				done <- err
				return
			}
		}
		done <- nil
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("coordinator wedged by a non-reading client")
	}
	// The coordinator lock must still be available.
	if got := coord.NumGroups(); got != 1 {
		t.Fatalf("groups=%d", got)
	}
}

func waitGroups(t *testing.T, c *Coordinator, want int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for c.NumGroups() != want {
		if time.Now().After(deadline) {
			t.Fatalf("groups never reached %d", want)
		}
		time.Sleep(time.Millisecond)
	}
}

// fullSocket is a transport that has a non-blocking write but whose
// socket is full: every TryWrite takes nothing, so each frame must wait
// in the backlog for blocking Writes.
type fullSocket struct {
	io.Writer
	tries atomic.Int32
}

func (f *fullSocket) TryWrite([]byte) (int, error) {
	f.tries.Add(1)
	return 0, nil
}

// Backlog overflow drops frames rather than blocking the sender, whether
// the transport has no non-blocking write (net.Pipe) or has one and its
// socket is full. In the second case only the first frame is tried: while
// the drain runs, every send joins the backlog.
func TestMemberOutboxOverflow(t *testing.T) {
	for _, tryable := range []bool{false, true} {
		t.Run(fmt.Sprintf("tryable=%v", tryable), func(t *testing.T) {
			// A writer whose peer never reads.
			serverSide, clientSide := net.Pipe()
			defer clientSide.Close()
			defer serverSide.Close()
			var w io.Writer = serverSide
			full := &fullSocket{Writer: serverSide}
			if tryable {
				w = full
			}
			m := newMember(1, w, log.New(io.Discard, "", 0))
			defer func() {
				// close() must return even with a blocked drain once the
				// peer pipe is closed.
				clientSide.Close()
				m.close()
			}()

			// The first send starts the drain, which takes its frame and
			// blocks on the pipe; the following outboxSize sends fill the
			// backlog; one more must be rejected.
			accepted := 0
			for i := 0; i < outboxSize+8; i++ {
				if m.send(Message{Type: TNotify, Group: 1, User: 1}) {
					accepted++
				}
			}
			if accepted > outboxSize+1 {
				t.Fatalf("accepted %d frames into a %d-frame backlog", accepted, outboxSize)
			}
			if accepted < outboxSize {
				t.Fatalf("backlog rejected too early: %d", accepted)
			}
			if tryable && full.tries.Load() != 1 {
				t.Fatalf("%d non-blocking tries, want 1 (later sends must join the backlog)", full.tries.Load())
			}
		})
	}
}

// frameWriter records each Write call's bytes. Until release is closed,
// every Write blocks, so a test can hold the drain goroutine mid-backlog.
type frameWriter struct {
	release chan struct{}
	mu      sync.Mutex
	writes  [][]byte
}

func (w *frameWriter) Write(p []byte) (int, error) {
	<-w.release
	w.mu.Lock()
	defer w.mu.Unlock()
	w.writes = append(w.writes, append([]byte(nil), p...))
	return len(p), nil
}

// The drain contract the fault-injection schedules count on: frames
// reach the peer in send order, one frame per Write call, and close
// returns only once every queued frame was written — on a transport
// without a non-blocking write and on one whose socket is full.
func TestMemberWriterOneFramePerWrite(t *testing.T) {
	for _, tryable := range []bool{false, true} {
		t.Run(fmt.Sprintf("tryable=%v", tryable), func(t *testing.T) {
			w := &frameWriter{release: make(chan struct{})}
			var tw io.Writer = w
			if tryable {
				tw = &fullSocket{Writer: w}
			}
			m := newMember(1, tw, log.New(io.Discard, "", 0))
			const n = outboxSize
			for i := range n {
				if !m.send(Message{Type: TPing, Epoch: uint64(i)}) {
					t.Fatalf("send %d refused by a %d-frame backlog", i, outboxSize)
				}
			}
			closed := make(chan struct{})
			go func() {
				m.close()
				close(closed)
			}()
			select {
			case <-closed:
				t.Fatal("close returned while the drain was still blocked")
			default:
			}
			close(w.release)
			<-closed

			w.mu.Lock()
			defer w.mu.Unlock()
			if len(w.writes) != n {
				t.Fatalf("close returned after %d of %d writes", len(w.writes), n)
			}
			for i, p := range w.writes {
				r := bytes.NewReader(p)
				msg, err := Read(r)
				if err != nil {
					t.Fatalf("write %d: %v", i, err)
				}
				if r.Len() != 0 {
					t.Fatalf("write %d carries %d bytes past its frame", i, r.Len())
				}
				if msg.Type != TPing || msg.Epoch != uint64(i) {
					t.Fatalf("write %d is %v epoch %d, want ping %d", i, msg.Type, msg.Epoch, i)
				}
			}
		})
	}
}

// shortSocket is a transport whose non-blocking write takes at most
// budget more bytes and then would block; its blocking Write waits for
// release. Both append to one byte stream, the peer's view.
type shortSocket struct {
	release chan struct{}
	mu      sync.Mutex
	budget  int
	tries   int
	writes  int
	stream  bytes.Buffer
}

func (s *shortSocket) TryWrite(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.tries++
	n := min(len(p), s.budget)
	s.budget -= n
	s.stream.Write(p[:n])
	return n, nil
}

func (s *shortSocket) Write(p []byte) (int, error) {
	<-s.release
	s.mu.Lock()
	defer s.mu.Unlock()
	s.writes++
	s.stream.Write(p)
	return len(p), nil
}

// A frame the socket takes only in part: its tail waits in the backlog,
// every later send joins the backlog behind it instead of trying inline,
// and the peer's byte stream parses into the frames in send order. Once
// the backlog is written the drain goroutine exits, and the next send is
// written inline again.
func TestMemberShortWriteKeepsOrder(t *testing.T) {
	s := &shortSocket{release: make(chan struct{}), budget: 3}
	m := newMember(1, s, log.New(io.Discard, "", 0))
	const queued = 6
	for i := range queued {
		if !m.send(Message{Type: TPing, Epoch: uint64(i)}) {
			t.Fatalf("send %d refused", i)
		}
	}
	m.wmu.Lock()
	done := m.draining
	m.wmu.Unlock()
	if done == nil {
		t.Fatal("a short write started no drain")
	}
	close(s.release)
	<-done
	m.wmu.Lock()
	draining, backlog := m.draining, len(m.backlog)
	m.wmu.Unlock()
	if draining != nil || backlog != 0 {
		t.Fatalf("after the drain exited: draining=%v, %d frames in the backlog", draining != nil, backlog)
	}

	s.mu.Lock()
	s.budget = 1 << 20
	s.mu.Unlock()
	if !m.send(Message{Type: TPing, Epoch: queued}) {
		t.Fatal("send after the drain refused")
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.tries != 2 || s.writes != queued {
		t.Fatalf("%d tries and %d blocking writes, want 2 and %d (the tail, then one per frame)",
			s.tries, s.writes, queued)
	}
	for i := range queued + 1 {
		msg, err := Read(&s.stream)
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if msg.Type != TPing || msg.Epoch != uint64(i) {
			t.Fatalf("frame %d is %v epoch %d, want ping %d", i, msg.Type, msg.Epoch, i)
		}
	}
	if s.stream.Len() != 0 {
		t.Fatalf("%d bytes past the last frame", s.stream.Len())
	}
}

// failingConn is a server-side connection whose writes fail. Reads come
// from the pipe the test writes to; Close only counts, so the member stays
// registered and the test can watch what later sends do. With tryable,
// the failure comes from the non-blocking write.
type failingConn struct {
	io.Reader
	tryable bool
	writes  atomic.Int32
	closes  atomic.Int32
}

func (c *failingConn) Write([]byte) (int, error) {
	c.writes.Add(1)
	return 0, errors.New("connection reset")
}

func (c *failingConn) Close() error {
	c.closes.Add(1)
	return nil
}

type failingTryConn struct{ *failingConn }

func (c failingTryConn) TryWrite(p []byte) (int, error) { return c.Write(p) }

// A failed write tears the member down: the connection is closed once,
// nothing more is written to it, and every later send is a counted drop
// (so she is marked for a full repair), without a second kick from the
// slow-client policy.
func TestMemberWriteErrorKicksOnce(t *testing.T) {
	for _, tryable := range []bool{false, true} {
		t.Run(fmt.Sprintf("tryable=%v", tryable), func(t *testing.T) {
			coord := newSyncCoordinator(testPlan(t, "circle"))
			serverSide, clientSide := net.Pipe()
			defer clientSide.Close()
			fc := &failingConn{Reader: serverSide}
			var conn io.ReadWriteCloser = fc
			if tryable {
				conn = failingTryConn{fc}
			}
			go func() { _ = coord.ServeConn(conn) }()
			if err := Write(clientSide, Message{
				Type: TRegister, Group: 1, User: 0, GroupSize: 1, Loc: geom.Pt(0.2, 0.2),
			}); err != nil {
				t.Fatal(err)
			}
			waitFor(t, "the kick", func() bool { return fc.closes.Load() == 1 })

			const reports = 2 * DefaultSlowClientLimit
			before := coord.Stats().DroppedFrames
			for i := range reports {
				if err := Write(clientSide, Message{
					Type: TReport, Group: 1, User: 0, Loc: geom.Pt(0.2+float64(i)*1e-3, 0.2),
				}); err != nil {
					t.Fatal(err)
				}
			}
			waitFor(t, "the drops", func() bool { return coord.Stats().DroppedFrames-before == reports })
			if n := fc.closes.Load(); n != 1 {
				t.Errorf("connection closed %d times, want 1", n)
			}
			if n := fc.writes.Load(); n != 1 {
				t.Errorf("%d writes, want 1 (nothing after the failure)", n)
			}
			if n := coord.Stats().SlowClientDisconnects; n != 0 {
				t.Errorf("%d slow-client kicks of a member already torn down", n)
			}
		})
	}
}

// waitFor polls cond until it holds, failing the test after 5 s.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// A registered member's protocol errors are sent through her, behind the
// frames already waiting for her: the client reads only well-formed
// frames, and the TErrors come last.
func TestProtocolErrorsFollowQueuedFrames(t *testing.T) {
	backend := &scriptedBackend{regions: circleRegions(1), meeting: geom.Pt(0.5, 0.5)}
	coord := NewAsyncCoordinator(backend.submit, nil)
	rc := dialRaw(t, coord)
	if err := Write(rc.conn, Message{
		Type: TRegister, Group: 1, User: 0, GroupSize: 1, Loc: geom.Pt(0.1, 0.2),
	}); err != nil {
		t.Fatal(err)
	}
	waitGroups(t, coord, 1)
	// The client does not read yet: the registration notify blocks the
	// pipe and these wait behind it.
	const delivered = 4
	for range delivered {
		coord.Deliver(1, []uint32{0}, nil, backend.meeting, backend.regions, nil)
	}
	go func() {
		// A second registration and a frame no client may send.
		for _, msg := range []Message{
			{Type: TRegister, Group: 1, User: 0, GroupSize: 1, Loc: geom.Pt(0.1, 0.2)},
			{Type: TPong, Epoch: 1},
		} {
			if err := Write(rc.conn, msg); err != nil {
				return
			}
		}
	}()
	waitFor(t, "both protocol errors", func() bool { return coord.Stats().ProtocolErrors == 2 })
	for i := range 1 + delivered + 2 {
		msg := rc.read(t)
		if wantErr := i > delivered; (msg.Type == TError) != wantErr {
			t.Fatalf("frame %d is %v; want the %d plan frames, then the two TErrors", i, msg.Type, 1+delivered)
		}
	}
}

// A frame the codec refuses (here a TError longer than MaxFrame) is a
// counted drop at enqueue: the writer never sees it, so it cannot stop
// the connection's later frames from being written.
func TestOversizedErrorIsCountedDrop(t *testing.T) {
	backend := &scriptedBackend{regions: circleRegions(2), meeting: geom.Pt(0.5, 0.5)}
	coord := NewAsyncCoordinator(backend.submit, nil)
	conns := []*rawConn{dialRaw(t, coord), dialRaw(t, coord)}
	for uid, rc := range conns {
		if err := Write(rc.conn, Message{
			Type: TRegister, Group: 4, User: uint32(uid), GroupSize: 2, Loc: geom.Pt(0.1*float64(uid+1), 0.2),
		}); err != nil {
			t.Fatal(err)
		}
	}
	for uid, rc := range conns {
		if m := rc.read(t); m.Type != TNotify {
			t.Fatalf("user %d registration frame %v", uid, m.Type)
		}
	}

	before := coord.Stats().DroppedFrames
	coord.Deliver(4, nil, nil, geom.Point{}, nil, errors.New(strings.Repeat("x", MaxFrame+1)))
	if got := coord.Stats().DroppedFrames - before; got != uint64(len(conns)) {
		t.Errorf("oversized error raised DroppedFrames by %d, want %d (one per member)", got, len(conns))
	}

	coord.Deliver(4, []uint32{0, 1}, nil, backend.meeting, backend.regions, nil)
	for uid, rc := range conns {
		m := rc.read(t)
		if m.Type != TNotify || !bytes.Equal(m.Region, EncodeRegion(backend.regions[uid])) {
			t.Fatalf("user %d: frame after the oversized error is %+v, want the plan", uid, m)
		}
	}
}

// The per-member footprint fence: registering a member allocates only her
// bookkeeping, which must stay under 512 B. No goroutine and no backlog
// exist until a frame has to wait (goroutine stacks are not heap, so
// TotalAlloc would not count them anyway).
func TestMemberFootprint(t *testing.T) {
	const n = 512
	members := make([]*member, n)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := range members {
		members[i] = newMember(uint32(i), io.Discard, log.New(io.Discard, "", 0))
	}
	runtime.ReadMemStats(&after)
	for _, m := range members {
		m.close()
	}
	perMember := (after.TotalAlloc - before.TotalAlloc) / n
	t.Logf("%d B allocated per member", perMember)
	if perMember > 512 {
		t.Fatalf("newMember allocates %d B per member, want ≤ %d", perMember, 512)
	}
}

// sinkSocket is a transport whose socket takes every frame at once.
type sinkSocket struct{ io.Writer }

func (sinkSocket) TryWrite(p []byte) (int, error) { return len(p), nil }

// Encoding a frame into a fresh buffer allocates once, whatever the
// frame carries: send (the inline path) and Write (the direct path) size
// the buffer from the whole message, regions and peer addresses
// included.
func TestFrameAllocatesOnce(t *testing.T) {
	circle := EncodeRegion(core.CircleRegion(geom.Pt(0.25, 0.75), 0.125))
	meeting := geom.Pt(0.4, 0.6)
	m := newMember(1, sinkSocket{io.Discard}, log.New(io.Discard, "", 0))
	for _, tc := range []struct {
		name string
		msg  Message
	}{
		{"notify", Message{Type: TNotify, Group: 3, User: 1, Epoch: 7, Meeting: meeting, Region: circle}},
		{"delta", Message{Type: TNotifyDelta, Group: 3, User: 1, Epoch: 8, MeetingChanged: true, Meeting: meeting, Region: circle}},
		{"peers", Message{Type: TPeers, Epoch: 2, Peers: []string{"primary:9000", "standby:9001"}}},
		{"probe", Message{Type: TProbe, Group: 3, User: 2}},
	} {
		refused := false
		n := testing.AllocsPerRun(100, func() {
			if !m.send(tc.msg) {
				refused = true
			}
		})
		if refused {
			t.Fatalf("%s: member.send refused the frame", tc.name)
		}
		if n != 1 {
			t.Errorf("%s: member.send allocates %.1f times, want 1", tc.name, n)
		}
		if n := testing.AllocsPerRun(100, func() { _ = Write(io.Discard, tc.msg) }); n != 1 {
			t.Errorf("%s: Write allocates %.1f times, want 1", tc.name, n)
		}
	}
}

// The traffic fence for outboxSize: a closed-loop fleet — members that
// read continuously, ping on a heartbeat and answer every probe — never
// fills an outbox, so nothing is dropped and nobody is kicked. Shrunk to
// one slot it failed 50 of 50 runs; to two, 35 of 50 (every run of
// either under -race).
func TestFleetTrafficFitsOutbox(t *testing.T) {
	const groups, size, rounds = 32, 3, 20
	coord := newSyncCoordinator(testPlan(t, "circle"))
	clientErrs := make(chan error, groups*size)
	var clients []*Client
	dial := func(gid, uid uint32, loc LocFunc, onNotify NotifyFunc) *Client {
		serverSide, clientSide := net.Pipe()
		go func() { _ = coord.ServeConn(serverSide) }()
		t.Cleanup(func() { clientSide.Close() })
		// The client sees no SetReadDeadline, so a scheduling stall under
		// -race cannot time a read out; the pings still flow.
		conn := struct {
			io.Reader
			io.Writer
		}{clientSide, clientSide}
		cl, err := NewClient(conn, gid, uid, loc, onNotify, WithHeartbeat(3*time.Millisecond))
		if err != nil {
			t.Fatal(err)
		}
		go func() {
			if err := cl.Run(); err != nil {
				clientErrs <- err
			}
		}()
		clients = append(clients, cl)
		return cl
	}

	// Each group runs its rounds concurrently with the others: one member
	// moves and reports, the server probes the other two, replans, and
	// notifies all three.
	var wg sync.WaitGroup
	groupErrs := make(chan error, groups)
	for g := range uint32(groups) {
		var mu sync.Mutex
		locs := make([]geom.Point, size)
		notified := make(chan struct{}, size*(rounds+1))
		members := make([]*Client, size)
		for i := range locs {
			locs[i] = geom.Pt(0.2+0.02*float64(g), 0.2+0.1*float64(i))
			members[i] = dial(g, uint32(i),
				func() geom.Point { mu.Lock(); defer mu.Unlock(); return locs[i] },
				func(geom.Point, core.SafeRegion) { notified <- struct{}{} })
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			// await closes the loop: one notification per member.
			await := func(what string) bool {
				for range size {
					select {
					case <-notified:
					case <-time.After(10 * time.Second):
						groupErrs <- fmt.Errorf("group %d: timed out waiting for %s", g, what)
						return false
					}
				}
				return true
			}
			for _, cl := range members {
				if err := cl.Register(size); err != nil {
					groupErrs <- err
					return
				}
			}
			if !await("the first plan") {
				return
			}
			for r := range rounds {
				reporter := r % size
				mu.Lock()
				locs[reporter].X += 0.01
				mu.Unlock()
				if err := members[reporter].Report(); err != nil {
					groupErrs <- err
					return
				}
				if !await(fmt.Sprintf("round %d", r)) {
					return
				}
			}
		}()
	}
	wg.Wait()
	close(groupErrs)
	for err := range groupErrs {
		t.Error(err)
	}
	// The heartbeats ran beside the rounds; wait for every client's first
	// pong so the fence always covers that traffic too.
	deadline := time.Now().Add(5 * time.Second)
	for _, cl := range clients {
		for cl.Pongs() == 0 {
			if time.Now().After(deadline) {
				t.Fatal("a client never received a pong")
			}
			time.Sleep(time.Millisecond)
		}
	}
	select {
	case err := <-clientErrs:
		t.Fatalf("client stopped: %v", err)
	default:
	}
	st := coord.Stats()
	t.Logf("%d heartbeats", st.Heartbeats)
	if st.DroppedFrames != 0 || st.SlowClientDisconnects != 0 {
		t.Fatalf("closed-loop fleet dropped %d frames and kicked %d clients from %d-slot outboxes",
			st.DroppedFrames, st.SlowClientDisconnects, outboxSize)
	}
}
