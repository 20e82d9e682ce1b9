package proto

import (
	"io"
	"log"
	"net"
	"testing"
	"time"

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
