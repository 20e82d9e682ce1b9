package proto

import (
	"errors"
	"io"
	"net"
	"sync"
	"testing"
	"time"

	"mpn/internal/core"
	"mpn/internal/geom"
)

// --- heartbeat ---------------------------------------------------------------

// A pinging client against a live coordinator: pongs flow back and both
// sides count them. Registration is not required for liveness traffic.
func TestHeartbeatPingPong(t *testing.T) {
	coord := newSyncCoordinator(testPlan(t, "circle"))
	serverSide, clientSide := net.Pipe()
	go func() { _ = coord.ServeConn(serverSide) }()
	defer clientSide.Close()

	cl, err := NewClient(clientSide, 1, 0,
		func() geom.Point { return geom.Pt(0.2, 0.2) }, nil,
		WithHeartbeat(10*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	runErr := make(chan error, 1)
	go func() { runErr <- cl.Run() }()

	deadline := time.Now().Add(5 * time.Second)
	for cl.Pongs() < 3 {
		if time.Now().After(deadline) {
			t.Fatalf("pongs=%d after 5s", cl.Pongs())
		}
		time.Sleep(time.Millisecond)
	}
	if got := coord.Stats().Heartbeats; got < 3 {
		t.Fatalf("server heartbeats=%d", got)
	}
	clientSide.Close()
	if err := <-runErr; err != nil && !errors.Is(err, io.ErrClosedPipe) {
		t.Fatalf("run: %v", err)
	}
}

// A peer that accepts writes but never answers is a dead server from the
// client's perspective: the sliding read deadline must fail the read and
// Run must return a timeout instead of blocking forever.
func TestHeartbeatDetectsSilentServer(t *testing.T) {
	serverSide, clientSide := net.Pipe()
	defer serverSide.Close()
	defer clientSide.Close()
	// Drain the client's pings so its writes never block, but say nothing.
	go func() {
		buf := make([]byte, 256)
		for {
			if _, err := serverSide.Read(buf); err != nil {
				return
			}
		}
	}()

	cl, err := NewClient(clientSide, 1, 0,
		func() geom.Point { return geom.Point{} }, nil,
		WithHeartbeat(20*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	runErr := cl.Run()
	if runErr == nil {
		t.Fatal("Run returned nil against a silent server")
	}
	var ne net.Error
	if !errors.As(runErr, &ne) || !ne.Timeout() {
		t.Fatalf("want timeout, got %v", runErr)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("timeout took %v", elapsed)
	}
}

// --- reconnect ---------------------------------------------------------------

// restartableServer is a coordinator behind a real TCP listener that can
// be killed and brought back on a fresh port, like a crashed process.
type restartableServer struct {
	t    *testing.T
	plan planFunc
	// gate, when set, is installed as the coordinator's write gate on
	// every (re)start.
	gate  WriteGateFunc
	mu    sync.Mutex
	coord *Coordinator
	ln    net.Listener
	conns []net.Conn
}

func (s *restartableServer) start() {
	s.t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		s.t.Fatal(err)
	}
	coord := newSyncCoordinator(s.plan)
	if s.gate != nil {
		coord.SetWriteGate(s.gate)
	}
	s.mu.Lock()
	s.ln, s.coord, s.conns = ln, coord, nil
	s.mu.Unlock()
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			s.mu.Lock()
			s.conns = append(s.conns, conn)
			s.mu.Unlock()
			go func() { _ = coord.ServeConn(conn) }()
		}
	}()
}

func (s *restartableServer) addr() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.ln.Addr().String()
}

func (s *restartableServer) kill() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.ln.Close()
	for _, c := range s.conns {
		c.Close()
	}
	s.conns = nil
}

// A server restart must be invisible to ReconnectClient callers beyond
// latency: the session redials with backoff, re-registers, and the full
// snapshot on the fresh registration repopulates the plan. The retained
// plan keeps answering during the outage.
func TestReconnectClientSurvivesServerRestart(t *testing.T) {
	srv := &restartableServer{t: t, plan: testPlan(t, "circle")}
	srv.start()
	defer srv.kill()

	notifyCh := make(chan geom.Point, 64)
	rc, err := NewReconnectClient(
		func() (io.ReadWriteCloser, error) { return net.Dial("tcp", srv.addr()) },
		1, 0, 1, // single-user group: registration completes it immediately
		func() geom.Point { return geom.Pt(0.25, 0.25) },
		func(meeting geom.Point, _ core.SafeRegion) { notifyCh <- meeting },
		Backoff{Min: 10 * time.Millisecond, Max: 200 * time.Millisecond, Factor: 2, Jitter: 0.2, Seed: 7},
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
	first := waitNotify("initial snapshot")
	if !rc.Connected() {
		// Connected flips just before Run; the notification proves the
		// session is up, so a brief lag is the only legal reason here.
		time.Sleep(50 * time.Millisecond)
	}

	// Kill the server. The client must notice, keep serving the retained
	// plan, and report ErrDisconnected on the dead session.
	srv.kill()
	deadline := time.Now().Add(5 * time.Second)
	for rc.Connected() {
		if time.Now().After(deadline) {
			t.Fatal("client never noticed the dead server")
		}
		time.Sleep(time.Millisecond)
	}
	if got := rc.Meeting(); got != first {
		t.Fatalf("retained meeting lost during outage: %v vs %v", got, first)
	}
	if !rc.NeedsUpdate(geom.Pt(9, 9)) {
		t.Fatal("retained region lost during outage")
	}
	if err := rc.Report(); !errors.Is(err, ErrDisconnected) {
		t.Fatalf("Report while down: %v", err)
	}

	// Bring a fresh server up (new port — the dial function re-reads the
	// address). The client must reconnect and receive a full snapshot.
	srv.start()
	second := waitNotify("post-restart snapshot")
	if second != first {
		// Same inputs, same deterministic planner: the replayed plan must
		// match the original.
		t.Fatalf("post-restart plan diverged: %v vs %v", second, first)
	}
	if rc.Reconnects() == 0 {
		t.Fatal("reconnects counter never moved")
	}
	deadline = time.Now().Add(5 * time.Second)
	for !rc.Connected() {
		if time.Now().After(deadline) {
			t.Fatal("Connected never recovered")
		}
		time.Sleep(time.Millisecond)
	}
	if err := rc.Report(); err != nil {
		t.Fatalf("Report after recovery: %v", err)
	}
}

// Stop must interrupt a blocked read and join the loop goroutine even
// while the server is healthy.
func TestReconnectClientStopWhileConnected(t *testing.T) {
	srv := &restartableServer{t: t, plan: testPlan(t, "circle")}
	srv.start()
	defer srv.kill()

	rc, err := NewReconnectClient(
		func() (io.ReadWriteCloser, error) { return net.Dial("tcp", srv.addr()) },
		1, 0, 1,
		func() geom.Point { return geom.Pt(0.25, 0.25) }, nil,
		Backoff{Min: 10 * time.Millisecond},
	)
	if err != nil {
		t.Fatal(err)
	}
	rc.Start()
	deadline := time.Now().Add(5 * time.Second)
	for !rc.Connected() {
		if time.Now().After(deadline) {
			t.Fatal("never connected")
		}
		time.Sleep(time.Millisecond)
	}
	done := make(chan struct{})
	go func() { rc.Stop(); close(done) }()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Stop wedged on a live connection")
	}
	rc.Stop() // idempotent
}

// The exponential schedule is deterministic per seed, grows by Factor,
// and caps at Max.
func TestBackoffSchedule(t *testing.T) {
	mk := func(seed int64) *ReconnectClient {
		rc, err := NewReconnectClient(
			func() (io.ReadWriteCloser, error) { return nil, errors.New("nope") },
			1, 0, 1, func() geom.Point { return geom.Point{} }, nil,
			Backoff{Min: 10 * time.Millisecond, Max: 80 * time.Millisecond, Factor: 2, Jitter: 0.5, Seed: seed},
		)
		if err != nil {
			t.Fatal(err)
		}
		return rc
	}
	a, b := mk(3), mk(3)
	d1, d2 := a.backoff.Min, b.backoff.Min
	for i := 0; i < 8; i++ {
		d1, d2 = a.nextDelay(d1), b.nextDelay(d2)
		if d1 != d2 {
			t.Fatalf("step %d: same seed diverged: %v vs %v", i, d1, d2)
		}
		if d1 < a.backoff.Min || d1 > time.Duration(float64(a.backoff.Max)*1.5) {
			t.Fatalf("step %d: delay %v outside [Min, Max*(1+Jitter)]", i, d1)
		}
	}
	// Without jitter the schedule is exactly geometric, capped.
	c := mk(0)
	c.backoff.Jitter = 0
	want := []time.Duration{20, 40, 80, 80, 80}
	d := c.backoff.Min
	for i, w := range want {
		d = c.nextDelay(d)
		if d != w*time.Millisecond {
			t.Fatalf("step %d: %v want %v", i, d, w*time.Millisecond)
		}
	}
}
