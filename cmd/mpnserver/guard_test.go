package main

import (
	"errors"
	"io"
	"log"
	"math/rand"
	"net"
	"runtime"
	"runtime/debug"
	"sync/atomic"
	"testing"
	"time"

	"mpn/internal/geom"
	"mpn/internal/proto"
)

// A connection that goes silent — no reports, no heartbeats — must be
// reaped by the idle deadline instead of holding its member slot and
// goroutines forever, and the teardown must be visible in the stats.
func TestIdleConnectionReaped(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	pois := make([]geom.Point, 300)
	for i := range pois {
		pois[i] = geom.Pt(rng.Float64(), rng.Float64())
	}
	srv, err := newServer(serverConfig{
		pois: pois, method: "circle", agg: "max",
		alpha: 5, buffer: 10, shards: 1, workers: 1,
		readTimeout: 200 * time.Millisecond,
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

	u := dialUser(t, ln.Addr().String(), 1, 0, geom.Pt(0.3, 0.3))
	if err := u.client.Register(1); err != nil {
		t.Fatal(err)
	}
	u.waitNotify(t)
	// Silence. The server must cut the connection within the idle window
	// (the client sees the severed stream as EOF or a reset).
	select {
	case <-u.runErr:
	case <-time.After(5 * time.Second):
		t.Fatal("idle connection never reaped")
	}
	deadline := time.Now().Add(5 * time.Second)
	for srv.snapshot().Conns.IdleTimeouts == 0 {
		if time.Now().After(deadline) {
			t.Fatal("idle teardown not recorded in stats")
		}
		time.Sleep(5 * time.Millisecond)
	}

	// A heartbeating client under the same deadline survives arbitrarily
	// long silence at the application layer: pings keep the reads alive.
	hb := dialUser(t, ln.Addr().String(), 2, 0, geom.Pt(0.4, 0.4), proto.WithHeartbeat(50*time.Millisecond))
	if err := hb.client.Register(1); err != nil {
		t.Fatal(err)
	}
	hb.waitNotify(t)
	select {
	case err := <-hb.runErr:
		t.Fatalf("heartbeating client reaped: %v", err)
	case <-time.After(600 * time.Millisecond): // 3× the idle window
	}
	if hb.client.Pongs() == 0 {
		t.Fatal("no pongs on the surviving connection")
	}
}

// An idle registered fleet costs one goroutine per connection, its read
// loop, plus a constant: frames the socket takes are written inline, and
// a member's drain goroutine runs only while her backlog is non-empty.
func TestIdleFleetOneGoroutinePerConn(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	pois := make([]geom.Point, 300)
	for i := range pois {
		pois[i] = geom.Pt(rng.Float64(), rng.Float64())
	}
	srv, err := newServer(serverConfig{
		pois: pois, method: "circle", agg: "max",
		alpha: 5, buffer: 10, shards: 1, workers: 1,
		logger: log.New(io.Discard, "", 0),
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

	const groups, size, slack = 16, 3, 8
	base := runtime.NumGoroutine()
	var conns []net.Conn
	for g := range uint32(groups) {
		for u := range uint32(size) {
			conn, err := net.Dial("tcp", ln.Addr().String())
			if err != nil {
				t.Fatal(err)
			}
			defer conn.Close()
			if err := proto.Write(conn, proto.Message{
				Type: proto.TRegister, Group: g, User: u, GroupSize: size,
				Loc: geom.Pt(0.2+0.03*float64(g), 0.2+0.1*float64(u)),
			}); err != nil {
				t.Fatal(err)
			}
			conns = append(conns, conn)
		}
	}
	for i, conn := range conns {
		_ = conn.SetReadDeadline(time.Now().Add(5 * time.Second))
		if msg, err := proto.Read(conn); err != nil || msg.Type != proto.TNotify {
			t.Fatalf("conn %d: first frame %v, %v; want the registration TNotify", i, msg.Type, err)
		}
	}
	bound := base + len(conns) + slack
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > bound {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines for %d idle connections over a base of %d, want ≤ %d (one per connection plus %d)",
				runtime.NumGoroutine(), len(conns), base, bound, slack)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestReadLoopStackPerConn forms a fleet of tiled groups over loopback
// and bounds the goroutine stack memory each connection adds. A read
// loop only decodes frames and hands snapshots to the engine; one that
// ran a tile plan would keep a stack sized to the planner's depth (about
// 8.5 KB a connection over groups of three, against 4.3 KB when no read
// loop plans). The collector is off while the fleet forms, so no stack
// shrinks before it is counted.
func TestReadLoopStackPerConn(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector deepens every stack")
	}
	rng := rand.New(rand.NewSource(9))
	pois := make([]geom.Point, 2000)
	for i := range pois {
		pois[i] = geom.Pt(rng.Float64(), rng.Float64())
	}
	srv, err := newServer(serverConfig{
		pois: pois, method: "tiled", agg: "max", alpha: 30, buffer: 100,
		shards: 1, workers: 1,
		logger: log.New(io.Discard, "", 0),
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

	runtime.GC()
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	base := ms.StackInuse
	const groups, size = 64, 3
	var conns []net.Conn
	for g := range uint32(groups) {
		for u := range uint32(size) {
			conn, err := net.Dial("tcp", ln.Addr().String())
			if err != nil {
				t.Fatal(err)
			}
			defer conn.Close()
			if err := proto.Write(conn, proto.Message{
				Type: proto.TRegister, Group: g, User: u, GroupSize: size,
				Loc: geom.Pt(rng.Float64(), rng.Float64()),
			}); err != nil {
				t.Fatal(err)
			}
			conns = append(conns, conn)
		}
	}
	for i, conn := range conns {
		_ = conn.SetReadDeadline(time.Now().Add(10 * time.Second))
		if msg, err := proto.Read(conn); err != nil || msg.Type != proto.TNotify {
			t.Fatalf("conn %d: first frame %v, %v; want the group's first TNotify", i, msg.Type, err)
		}
	}
	runtime.ReadMemStats(&ms)
	const limit = 6 << 10
	per := (int64(ms.StackInuse) - int64(base)) / int64(len(conns))
	t.Logf("stacks %d → %d B: %d B per connection", base, ms.StackInuse, per)
	if per > limit {
		t.Fatalf("%d B of stack per connection, want ≤ %d: a read loop planned", per, limit)
	}
}

// deadlineSpy counts the write deadlines armed on a connection. It keeps
// the TCP connection's SyscallConn, so the member still writes inline.
type deadlineSpy struct {
	*net.TCPConn
	armed atomic.Int32
}

func (s *deadlineSpy) SetWriteDeadline(t time.Time) error {
	if !t.IsZero() {
		s.armed.Add(1)
	}
	return s.TCPConn.SetWriteDeadline(t)
}

// A member whose socket filled once, so that her backlog was drained
// under the write deadline, must outlive that deadline: the frames her
// socket takes later are written inline, and a deadline left to expire
// on the socket would fail them and disconnect her.
func TestDrainedMemberOutlivesWriteTimeout(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	pois := make([]geom.Point, 300)
	for i := range pois {
		pois[i] = geom.Pt(rng.Float64(), rng.Float64())
	}
	const writeTimeout = time.Second
	srv, err := newServer(serverConfig{
		pois: pois, method: "circle", agg: "max",
		alpha: 5, buffer: 10, shards: 1, workers: 1,
		writeTimeout: writeTimeout,
		slowLimit:    -1, // the flood below overflows the backlog on purpose
		logger:       log.New(io.Discard, "", 0),
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
	spies := make(chan *deadlineSpy, 1)
	go func() {
		// serve's wiring, over a socket with the smallest send buffer.
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		tc := conn.(*net.TCPConn)
		_ = tc.SetWriteBuffer(1)
		spy := &deadlineSpy{TCPConn: tc}
		spies <- spy
		_ = srv.coord.ServeConn(newGuardedConn(spy, 0, writeTimeout, &srv.cstats).transport())
	}()

	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	_ = conn.(*net.TCPConn).SetReadBuffer(1)
	spy := <-spies
	if err := proto.Write(conn, proto.Message{
		Type: proto.TRegister, Group: 1, User: 0, GroupSize: 1, Loc: geom.Pt(0.4, 0.4),
	}); err != nil {
		t.Fatal(err)
	}
	_ = conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	if msg, err := proto.Read(conn); err != nil || msg.Type != proto.TNotify {
		t.Fatalf("first frame %v, %v; want the registration TNotify", msg.Type, err)
	}

	// Pings unread fill both socket buffers until a pong has to wait for
	// the drain, which arms the deadline. They go in batches the server
	// answers before the next, so no unanswered pings pile up behind the
	// full socket, and reading the pongs then empties the backlog well
	// within the deadline.
	var sent uint64
	deadline := time.Now().Add(10 * time.Second)
	for spy.armed.Load() == 0 {
		for range 32 {
			if err := proto.Write(conn, proto.Message{Type: proto.TPing, Epoch: sent}); err != nil {
				t.Fatal(err)
			}
			sent++
		}
		for srv.coord.Stats().Heartbeats < sent {
			if time.Now().After(deadline) {
				t.Fatal("no write had to wait: the socket never filled")
			}
			time.Sleep(time.Millisecond)
		}
	}
	for {
		_ = conn.SetReadDeadline(time.Now().Add(300 * time.Millisecond))
		if _, err := proto.Read(conn); err != nil {
			var ne net.Error
			if !errors.As(err, &ne) || !ne.Timeout() {
				t.Fatalf("connection lost while draining: %v", err)
			}
			break
		}
	}

	time.Sleep(writeTimeout + 100*time.Millisecond)
	const last = 1 << 40
	if err := proto.Write(conn, proto.Message{Type: proto.TPing, Epoch: last}); err != nil {
		t.Fatal(err)
	}
	_ = conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	for {
		msg, err := proto.Read(conn)
		if err != nil {
			t.Fatalf("member disconnected after her write deadline expired: %v", err)
		}
		if msg.Type == proto.TPong && msg.Epoch == last {
			break
		}
	}
	if n := srv.snapshot().Conns.WriteErrors; n != 0 {
		t.Fatalf("%d write errors, want 0", n)
	}
}
