package main

import (
	"io"
	"log"
	"math/rand"
	"net"
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
