//go:build unix

package main

import (
	"errors"
	"io"
	"log"
	"math/rand"
	"net"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"mpn/internal/geom"
	"mpn/internal/proto"
)

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

// sockBuf reads a socket buffer size back from the kernel (SO_SNDBUF or
// SO_RCVBUF): what it granted, not what was asked for.
func sockBuf(t *testing.T, conn *net.TCPConn, opt int) int {
	t.Helper()
	raw, err := conn.SyscallConn()
	if err != nil {
		t.Fatal(err)
	}
	var size int
	var serr error
	if err := raw.Control(func(fd uintptr) {
		size, serr = syscall.GetsockoptInt(int(fd), syscall.SOL_SOCKET, opt)
	}); err != nil {
		t.Fatal(err)
	}
	if serr != nil {
		t.Fatal(serr)
	}
	return size
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
	// within the deadline. The flood is bounded by bytes, not by time: a
	// loaded box only makes it slower. A pong is as long as its ping, and
	// until the socket fills every pong is written, so the flood stops
	// with a failure once the pongs written exceed the two buffers the
	// kernel granted many times over.
	sndbuf := sockBuf(t, spy.TCPConn, syscall.SO_SNDBUF)
	rcvbuf := sockBuf(t, conn.(*net.TCPConn), syscall.SO_RCVBUF)
	limit := 64 * (sndbuf + rcvbuf)
	var sent uint64
	var frame []byte
	pongBytes := 0
	for spy.armed.Load() == 0 {
		if pongBytes > limit {
			t.Fatalf("no write had to wait: the server wrote %d B of pongs to a %d B send buffer and a %d B receive buffer nobody read (the kernel's sizes)",
				pongBytes, sndbuf, rcvbuf)
		}
		for range 32 {
			frame, _ = proto.Message{Type: proto.TPing, Epoch: sent}.AppendFrame(frame[:0])
			if _, err := conn.Write(frame); err != nil {
				t.Fatalf("ping %d: %v", sent, err)
			}
			pongBytes += len(frame)
			sent++
		}
		answered := time.Now().Add(10 * time.Second)
		for srv.coord.Stats().Heartbeats < sent {
			if time.Now().After(answered) {
				t.Fatalf("the server answered %d of %d pings, none for 10 s", srv.coord.Stats().Heartbeats, sent)
			}
			time.Sleep(time.Millisecond)
		}
	}
	t.Logf("the socket filled after %d B of pongs (send buffer %d B, receive buffer %d B)", pongBytes, sndbuf, rcvbuf)
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

// TryWrite on a loopback socket allocates nothing: the raw write's
// callback is not built per call.
func TestTryWriteAllocatesNothing(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	accepted := make(chan net.Conn, 1)
	go func() {
		if conn, err := ln.Accept(); err == nil {
			accepted <- conn
		}
	}()
	client, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	server := <-accepted
	defer server.Close()
	var stats connStats
	tw := newGuardedConn(server, 0, 0, &stats).transport().(proto.TryWriter)
	frame, _ := proto.Message{Type: proto.TPong, Epoch: 7}.AppendFrame(nil)
	n := testing.AllocsPerRun(100, func() {
		if n, err := tw.TryWrite(frame); n != len(frame) || err != nil {
			t.Fatalf("TryWrite took %d of %d bytes: %v", n, len(frame), err)
		}
	})
	if n != 0 {
		t.Fatalf("TryWrite allocates %.1f times, want 0", n)
	}
}
