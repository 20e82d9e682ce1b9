package main

import (
	"io"
	"log"
	"math/rand"
	"net"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"mpn/internal/core"
	"mpn/internal/geom"
	"mpn/internal/gnn"
	"mpn/internal/proto"
)

// e2eUser is one protocol client over a real TCP connection.
type e2eUser struct {
	client *proto.Client
	conn   net.Conn
	mu     sync.Mutex
	loc    geom.Point
	notify chan geom.Point
	runErr chan error
}

func dialUser(t *testing.T, addr string, group, user uint32, start geom.Point, opts ...proto.ClientOption) *e2eUser {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	u := &e2eUser{loc: start, notify: make(chan geom.Point, 64), runErr: make(chan error, 1)}
	u.conn = conn
	t.Cleanup(func() { conn.Close() })
	u.client, err = proto.NewClient(conn, group, user,
		func() geom.Point {
			u.mu.Lock()
			defer u.mu.Unlock()
			return u.loc
		},
		func(meeting geom.Point, _ core.SafeRegion) { u.notify <- meeting },
		opts...,
	)
	if err != nil {
		t.Fatal(err)
	}
	go func() { u.runErr <- u.client.Run() }()
	return u
}

func (u *e2eUser) setLoc(p geom.Point) {
	u.mu.Lock()
	u.loc = p
	u.mu.Unlock()
}

func (u *e2eUser) waitNotify(t *testing.T) geom.Point {
	t.Helper()
	select {
	case p := <-u.notify:
		return p
	case err := <-u.runErr:
		t.Fatalf("client stopped: %v", err)
	case <-time.After(10 * time.Second):
		t.Fatal("timed out waiting for notification")
	}
	return geom.Point{}
}

// TestEndToEndTCP drives the full engine-backed server over loopback TCP:
// a group registers, one member escapes her safe region and reports, and
// every member receives a recomputed meeting point with a re-encoded safe
// region that contains her fresh location. It runs twice: against the
// default full-replan server and against -incremental maintenance (the
// recomputed meeting point must match an independent planner run either
// way, because the incremental path recomputes the result set fresh).
func TestEndToEndTCP(t *testing.T) {
	t.Run("full", func(t *testing.T) { testEndToEndTCP(t, false) })
	t.Run("incremental", func(t *testing.T) { testEndToEndTCP(t, true) })
}

func testEndToEndTCP(t *testing.T, incremental bool) {
	rng := rand.New(rand.NewSource(7))
	pois := make([]geom.Point, 800)
	for i := range pois {
		pois[i] = geom.Pt(rng.Float64(), rng.Float64())
	}
	srv, err := newServer(serverConfig{
		pois: pois, method: "tiled", agg: "max",
		alpha: 5, buffer: 20, shards: 2, workers: 1,
		incremental: incremental,
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
	addr := ln.Addr().String()

	starts := []geom.Point{geom.Pt(0.30, 0.30), geom.Pt(0.35, 0.32), geom.Pt(0.31, 0.36)}
	users := make([]*e2eUser, len(starts))
	for i, p := range starts {
		users[i] = dialUser(t, addr, 1, uint32(i), p)
	}
	for i, u := range users {
		if err := u.client.Register(uint32(len(users))); err != nil {
			t.Fatalf("register %d: %v", i, err)
		}
	}

	// The engine's registration plan fans out to every member.
	first := make([]geom.Point, len(users))
	for i, u := range users {
		first[i] = u.waitNotify(t)
	}
	if first[0] != first[1] || first[1] != first[2] {
		t.Fatalf("members notified of different meeting points: %v", first)
	}
	for i, u := range users {
		if u.client.NeedsUpdate(starts[i]) {
			t.Fatalf("user %d: fresh region misses her own location", i)
		}
	}

	// User 0 escapes; everyone else drifts slightly. The report triggers
	// probe → reply → engine submission → notification fan-out.
	moved := []geom.Point{geom.Pt(0.70, 0.70), geom.Pt(0.36, 0.33), geom.Pt(0.30, 0.37)}
	if !users[0].client.NeedsUpdate(moved[0]) {
		t.Fatal("far jump did not escape the safe region")
	}
	for i, u := range users {
		u.setLoc(moved[i])
	}
	if err := users[0].client.Report(); err != nil {
		t.Fatal(err)
	}
	second := make([]geom.Point, len(users))
	for i, u := range users {
		second[i] = u.waitNotify(t)
	}
	if second[0] != second[1] || second[1] != second[2] {
		t.Fatalf("post-escape meeting points diverge: %v", second)
	}

	// The recomputed meeting point must match an independent planner run
	// over the same POIs, options, and fresh locations.
	opts := core.DefaultOptions()
	opts.TileLimit = 5
	opts.Buffer = 20
	opts.Directed = true
	opts.Aggregate = gnn.Max
	planner, err := core.NewPlanner(pois, opts)
	if err != nil {
		t.Fatal(err)
	}
	want, _, err := planner.Plan(core.NewWorkspace(), core.PlanRequest{Kind: core.KindTiles, Users: moved})
	if err != nil {
		t.Fatal(err)
	}
	if second[0] != want.Best.Item.P {
		t.Fatalf("recomputed meeting %v, want %v", second[0], want.Best.Item.P)
	}

	// The re-encoded regions decoded by the clients contain each member's
	// fresh location.
	for i, u := range users {
		if !u.client.Region().Contains(moved[i]) {
			t.Fatalf("user %d: delivered region misses her fresh location", i)
		}
	}
}

// TestEndToEndBurstCoalesces fires a burst of reports from one member and
// checks the server survives and converges: the engine may collapse the
// burst into fewer recomputations, but the final notification must cover
// the final locations.
func TestEndToEndBurstCoalesces(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	pois := make([]geom.Point, 500)
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

	u := dialUser(t, ln.Addr().String(), 9, 0, geom.Pt(0.2, 0.2))
	if err := u.client.Register(1); err != nil {
		t.Fatal(err)
	}
	u.waitNotify(t)

	final := geom.Pt(0.8, 0.8)
	for i := 0; i < 20; i++ {
		u.setLoc(geom.Pt(0.2+0.03*float64(i), 0.2))
		if err := u.client.Report(); err != nil {
			t.Fatal(err)
		}
	}
	u.setLoc(final)
	if err := u.client.Report(); err != nil {
		t.Fatal(err)
	}
	// Drain notifications until the delivered region contains the final
	// location (the last report is never lost).
	deadline := time.Now().Add(10 * time.Second)
	for {
		u.waitNotify(t)
		if u.client.Region().Contains(final) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("never converged on the final location")
		}
	}
	// Every report either got a recomputation of its own or is counted as
	// coalesced into a newer one. The engine counts at commit, before it
	// notifies, so the final notification having arrived means all of
	// them are in.
	srv.mu.Lock()
	eid := srv.gidToEngine[9].eid
	srv.mu.Unlock()
	recomputed := uint64(srv.eng.Updates(eid) - 1) // minus the registration plan
	if coalesced := srv.snapshot().Engine.Coalesced; recomputed+coalesced != 21 {
		t.Fatalf("%d recomputations + %d coalesced reports, want 21 reports accounted for",
			recomputed, coalesced)
	}
}

// TestMethodValidated: -method is checked like -agg. Before the check,
// anything but "tiled", "circle" and "net" — a typo included — silently
// served undirected tiles. There is no -gnncache row: the refusal of
// -gnncache under -method net went with the GNN cache, and the flag is now
// accepted and ignored with every method (see TestParseFlags).
func TestMethodValidated(t *testing.T) {
	pois := []geom.Point{geom.Pt(0.2, 0.2), geom.Pt(0.8, 0.3), geom.Pt(0.5, 0.9)}
	for _, tc := range []struct {
		method  string
		wantErr string // empty: accepted
	}{
		{"circle", ""}, {"tile", ""}, {"tiled", ""}, {"net", ""},
		{"", "unknown method"}, {"cirlce", "unknown method"},
	} {
		srv, err := newServer(serverConfig{
			pois: pois, method: tc.method, agg: "max", alpha: 5, shards: 1,
			logger: log.New(io.Discard, "", 0),
		})
		if err == nil {
			srv.close()
		}
		ok := err == nil
		if tc.wantErr != "" {
			ok = err != nil && strings.Contains(err.Error(), tc.wantErr)
		}
		if !ok {
			t.Errorf("method %q: err = %v, want error %q", tc.method, err, tc.wantErr)
		}
	}
}

// TestLoadPOIs: the -pois CSV reader takes "x,y" lines and refuses
// everything else — in particular the "NaN" and "Inf" spellings that
// strconv.ParseFloat accepts, which would put an unreachable POI (or one
// that poisons every distance) into the index.
func TestLoadPOIs(t *testing.T) {
	cases := []struct {
		name, csv string
		want      int // POIs loaded; -1 = load must fail
	}{
		{"plain", "0.1,0.2\n0.3,0.4\n", 2},
		{"header, blanks and spaces", "x,y\n\n 0.1 , 0.2 \n", 1},
		{"NaN", "0.1,0.2\nNaN,0.4\n", -1},
		{"nan y", "0.1,nan\n", -1},
		{"+Inf", "Inf,0.4\n", -1},
		{"-Inf", "0.1,-Inf\n", -1},
		{"infinity", "0.1,+Infinity\n", -1},
		{"three fields", "0.1,0.2,0.3\n", -1},
		{"not a number", "0.1,abc\n", -1},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "pois.csv")
			if err := os.WriteFile(path, []byte(tc.csv), 0o644); err != nil {
				t.Fatal(err)
			}
			pts, err := loadPOIs(path, 0, 0)
			if tc.want < 0 {
				if err == nil {
					t.Fatalf("accepted %q as %v", tc.csv, pts)
				}
				return
			}
			if err != nil || len(pts) != tc.want {
				t.Fatalf("got %d POIs (err %v), want %d", len(pts), err, tc.want)
			}
		})
	}
}
