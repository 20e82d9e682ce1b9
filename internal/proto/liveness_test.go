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

// Outbox overflow drops frames rather than blocking the sender.
func TestMemberOutboxOverflow(t *testing.T) {
	// A writer whose peer never reads.
	serverSide, clientSide := net.Pipe()
	defer clientSide.Close()
	defer serverSide.Close()
	m := newMember(1, serverSide, log.New(io.Discard, "", 0))
	defer func() {
		// close() must return even with a blocked writer once the peer
		// pipe is closed.
		clientSide.Close()
		m.close()
	}()

	// First send is picked up by the writer goroutine and blocks on the
	// pipe; the following outboxSize sends fill the queue; one more must
	// be rejected.
	accepted := 0
	for i := 0; i < outboxSize+8; i++ {
		if m.send(Message{Type: TNotify, Group: 1, User: 1}) {
			accepted++
		}
	}
	if accepted > outboxSize+1 {
		t.Fatalf("accepted %d frames into a %d-slot outbox", accepted, outboxSize)
	}
	if accepted < outboxSize {
		t.Fatalf("outbox rejected too early: %d", accepted)
	}
}

// frameWriter records each Write call's bytes. Until release is closed,
// every Write blocks, so a test can hold the writer goroutine mid-queue.
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

// The writer contract the fault-injection schedules count on: frames
// reach the peer in send order, one frame per Write call, and close
// returns only once every queued frame was written.
func TestMemberWriterOneFramePerWrite(t *testing.T) {
	w := &frameWriter{release: make(chan struct{})}
	m := newMember(1, w, log.New(io.Discard, "", 0))
	const n = outboxSize
	for i := range n {
		if !m.send(Message{Type: TPing, Epoch: uint64(i)}) {
			t.Fatalf("send %d refused by a %d-slot outbox", i, outboxSize)
		}
	}
	closed := make(chan struct{})
	go func() {
		m.close()
		close(closed)
	}()
	select {
	case <-closed:
		t.Fatal("close returned while the writer was still blocked")
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

// The per-member footprint fence: registering a member allocates its
// outbox, writer goroutine closure and bookkeeping, which must stay
// under 2 KB; the outbox's 16 slots of 24 bytes are 384 B of it.
// Goroutine stacks are not heap, so TotalAlloc does not count them.
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
	if perMember > 2<<10 {
		t.Fatalf("newMember allocates %d B per member, want ≤ %d", perMember, 2<<10)
	}
}

// Encoding a frame into a fresh buffer allocates once, whatever the
// frame carries: send (the outbox path) and Write (the direct path) size
// the buffer from the whole message, regions and peer addresses
// included.
func TestFrameAllocatesOnce(t *testing.T) {
	circle := EncodeRegion(core.CircleRegion(geom.Pt(0.25, 0.75), 0.125))
	meeting := geom.Pt(0.4, 0.6)
	m := &member{out: make(chan []byte, 1)}
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
				return
			}
			<-m.out
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
