package proto

import (
	"bytes"
	"errors"
	"io"
	"net"
	"sync/atomic"
	"testing"
	"time"

	"mpn/internal/core"
	"mpn/internal/geom"
)

// --- TPeers codec ------------------------------------------------------------

// The peer-advertisement frame round-trips through the public Write/Read
// pair, and a forged count beyond the remaining payload is rejected
// before any allocation keyed to it.
func TestPeersFrameCodec(t *testing.T) {
	var buf bytes.Buffer
	want := Message{Type: TPeers, Epoch: 42, Peers: []string{"primary:9000", "standby-a:9001", ""}}
	if err := Write(&buf, want); err != nil {
		t.Fatal(err)
	}
	got, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Type != TPeers || got.Epoch != want.Epoch || len(got.Peers) != len(want.Peers) {
		t.Fatalf("round trip mismatch: %+v", got)
	}
	for i := range want.Peers {
		if got.Peers[i] != want.Peers[i] {
			t.Fatalf("peer %d: %q want %q", i, got.Peers[i], want.Peers[i])
		}
	}

	// Forged count: type + epoch 0 + count 200 with no address bytes.
	if _, err := parsePayload([]byte{byte(TPeers), 0, 200, 1}); !errors.Is(err, ErrCorruptFrame) {
		t.Fatalf("forged count: %v want ErrCorruptFrame", err)
	}
	// Forged address length overrunning the payload.
	if _, err := parsePayload([]byte{byte(TPeers), 0, 1, 50, 'x'}); !errors.Is(err, ErrCorruptFrame) {
		t.Fatalf("forged addr length: %v want ErrCorruptFrame", err)
	}
	// Trailing garbage after a well-formed list.
	good := Message{Type: TPeers, Epoch: 1, Peers: []string{"a"}}.appendPayload(nil)
	if _, err := parsePayload(append(good, 0)); !errors.Is(err, ErrCorruptFrame) {
		t.Fatalf("trailing garbage: %v want ErrCorruptFrame", err)
	}
}

// --- write gate --------------------------------------------------------------

// A gated-off coordinator must refuse a registration with a peer
// redirect followed by an error — the zero-downtime failover handshake a
// client sees when it dials a standby.
func TestWriteGateRefusesRegistration(t *testing.T) {
	coord := newSyncCoordinator(testPlan(t, "circle"))
	refusal := errors.New("standby: writes go to the primary")
	coord.SetWriteGate(func() ([]string, uint64, error) {
		return []string{"primary:9000"}, 7, refusal
	})
	serverSide, clientSide := net.Pipe()
	defer clientSide.Close()
	go func() { _ = coord.ServeConn(serverSide) }()

	if err := Write(clientSide, Message{Type: TRegister, Group: 1, User: 0, GroupSize: 1}); err != nil {
		t.Fatal(err)
	}
	peers, err := Read(clientSide)
	if err != nil {
		t.Fatal(err)
	}
	if peers.Type != TPeers || peers.Epoch != 7 || len(peers.Peers) != 1 || peers.Peers[0] != "primary:9000" {
		t.Fatalf("want peer redirect, got %+v", peers)
	}
	errMsg, err := Read(clientSide)
	if err != nil {
		t.Fatal(err)
	}
	if errMsg.Type != TError {
		t.Fatalf("want TError after redirect, got %+v", errMsg)
	}
	if got := coord.Stats().WriteRefusals; got != 1 {
		t.Fatalf("WriteRefusals=%d want 1", got)
	}
	if coord.NumGroups() != 0 {
		t.Fatal("refused registration created a group")
	}
}

// A member registered while the node was primary must have its next
// report refused — through its outbox, with the redirect first — after
// the gate closes (the node was deposed mid-session).
func TestWriteGateRefusesReportAfterDeposal(t *testing.T) {
	coord := newSyncCoordinator(testPlan(t, "circle"))
	var deposed atomic.Bool
	coord.SetWriteGate(func() ([]string, uint64, error) {
		if deposed.Load() {
			return []string{"new-primary:9000"}, 9, errors.New("fenced: a newer primary exists")
		}
		return []string{"self:9000"}, 1, nil
	})
	serverSide, clientSide := net.Pipe()
	defer clientSide.Close()
	go func() { _ = coord.ServeConn(serverSide) }()

	cl, err := NewClient(clientSide, 1, 0, func() geom.Point { return geom.Pt(0.25, 0.25) }, nil)
	if err != nil {
		t.Fatal(err)
	}
	var gotEpoch atomic.Uint64
	WithPeerUpdate(func(epoch uint64, peers []string) { gotEpoch.Store(epoch) })(cl)
	if err := cl.Register(1); err != nil {
		t.Fatal(err)
	}
	runErr := make(chan error, 1)
	go func() { runErr <- cl.Run() }()

	// The registration-time push advertises the primary's own peer list.
	deadline := time.Now().Add(5 * time.Second)
	for gotEpoch.Load() != 1 {
		if time.Now().After(deadline) {
			t.Fatal("registration peer push never arrived")
		}
		time.Sleep(time.Millisecond)
	}

	deposed.Store(true)
	if err := cl.Report(); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-runErr:
		if err == nil || err.Error() != "proto: server error: fenced: a newer primary exists" {
			t.Fatalf("session ended with %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("refused report never ended the session")
	}
	if gotEpoch.Load() != 9 {
		t.Fatalf("refusal peer epoch %d want 9", gotEpoch.Load())
	}
	if got := coord.Stats().WriteRefusals; got != 1 {
		t.Fatalf("WriteRefusals=%d want 1", got)
	}
}

// --- multi-address reconnect -------------------------------------------------

// A multi-address client pointed at a dead first server must walk the
// ring to the live one and re-register there; the deterministic planner
// proves the recovered plan matches.
func TestReconnectClientAddrsFailover(t *testing.T) {
	a := &restartableServer{t: t, plan: testPlan(t, "circle")}
	b := &restartableServer{t: t, plan: testPlan(t, "circle")}
	a.start()
	b.start()
	defer a.kill()
	defer b.kill()

	notifyCh := make(chan geom.Point, 64)
	rc, err := NewReconnectClientAddrs(
		func(addr string) (io.ReadWriteCloser, error) { return net.Dial("tcp", addr) },
		[]string{a.addr(), b.addr()},
		1, 0, 1,
		func() geom.Point { return geom.Pt(0.25, 0.25) },
		func(meeting geom.Point, _ core.SafeRegion) { notifyCh <- meeting },
		Backoff{Min: 5 * time.Millisecond, Max: 50 * time.Millisecond, Seed: 3},
	)
	if err != nil {
		t.Fatal(err)
	}
	rc.Start()
	defer rc.Stop()

	waitNotify := func(what string) geom.Point {
		select {
		case p := <-notifyCh:
			return p
		case <-time.After(10 * time.Second):
			t.Fatalf("timed out waiting for %s", what)
			return geom.Point{}
		}
	}
	first := waitNotify("plan from server A")

	// Kill A: the client must rotate to B and resume.
	a.kill()
	second := waitNotify("plan from server B")
	if second != first {
		t.Fatalf("failover plan diverged: %v vs %v", second, first)
	}
	if rc.Reconnects() == 0 {
		t.Fatal("reconnects counter never moved")
	}
}

// A server-pushed peer advertisement replaces the client's address book
// (fresh epochs only), steering the next reconnect at the advertised
// node even though it was never configured.
func TestReconnectClientAdoptsPeers(t *testing.T) {
	target := &restartableServer{t: t, plan: testPlan(t, "circle")}
	target.start()
	defer target.kill()

	// The first server advertises the target as the cluster's address.
	first := &restartableServer{t: t, plan: testPlan(t, "circle")}
	first.gate = func() ([]string, uint64, error) {
		return []string{target.addr()}, 5, nil
	}
	first.start()
	defer first.kill()

	notifyCh := make(chan geom.Point, 64)
	rc, err := NewReconnectClientAddrs(
		func(addr string) (io.ReadWriteCloser, error) { return net.Dial("tcp", addr) },
		[]string{first.addr()},
		1, 0, 1,
		func() geom.Point { return geom.Pt(0.25, 0.25) },
		func(meeting geom.Point, _ core.SafeRegion) { notifyCh <- meeting },
		Backoff{Min: 5 * time.Millisecond, Max: 50 * time.Millisecond, Seed: 3},
	)
	if err != nil {
		t.Fatal(err)
	}
	rc.Start()
	defer rc.Stop()

	select {
	case <-notifyCh:
	case <-time.After(10 * time.Second):
		t.Fatal("no plan from the first server")
	}
	deadline := time.Now().Add(5 * time.Second)
	for rc.PeerEpoch() != 5 {
		if time.Now().After(deadline) {
			t.Fatalf("peer advertisement never adopted (epoch %d)", rc.PeerEpoch())
		}
		time.Sleep(time.Millisecond)
	}
	if addrs := rc.Addrs(); len(addrs) != 1 || addrs[0] != target.addr() {
		t.Fatalf("address book %v, want [%s]", addrs, target.addr())
	}

	// A stale advertisement (older epoch) must be ignored.
	rc.adoptPeers(3, []string{"dead-primary:1"})
	if addrs := rc.Addrs(); addrs[0] != target.addr() {
		t.Fatalf("stale advertisement adopted: %v", addrs)
	}

	// Kill the configured server: the client follows the adoption to the
	// target, which was never in its configured list.
	first.kill()
	select {
	case <-notifyCh:
	case <-time.After(10 * time.Second):
		t.Fatal("client never reached the advertised server")
	}
	ok := false
	for wait := time.Now().Add(5 * time.Second); time.Now().Before(wait); time.Sleep(time.Millisecond) {
		if rc.Connected() {
			ok = true
			break
		}
	}
	if !ok {
		t.Fatal("Connected never recovered on the advertised server")
	}
}
