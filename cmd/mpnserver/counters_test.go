package main

import (
	"bytes"
	"io"
	"log"
	"math"
	"math/rand"
	"net"
	"regexp"
	"strconv"
	"testing"
	"time"

	"mpn/internal/core"
	"mpn/internal/faultinject"
	"mpn/internal/geom"
)

// TestShutdownLineCountsShedOnce overloads a one-shard, depth-1 server
// with fail-fast admission behind a stalled worker and reads the shutdown
// line: its shed= is the engine's own count, so every shed report is
// counted once.
func TestShutdownLineCountsShedOnce(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	pois := make([]geom.Point, 300)
	for i := range pois {
		pois[i] = geom.Pt(rng.Float64(), rng.Float64())
	}
	var logs bytes.Buffer
	srv, err := newServer(serverConfig{
		pois: pois, method: "circle", agg: "max", alpha: 5, buffer: 10,
		shards: 1, workers: 1, queue: 1,
		logger: log.New(&logs, "", 0),
	})
	if err != nil {
		t.Fatal(err)
	}
	at := func(gid uint32, step int) []geom.Point {
		return []geom.Point{geom.Pt(0.15*float64(gid), 0.2+0.01*float64(step))}
	}
	const groups = 4
	for gid := uint32(1); gid <= groups; gid++ {
		if _, _, _, registered := srv.submit(gid, []uint32{1}, at(gid, 0)); !registered {
			t.Fatalf("group %d did not register", gid)
		}
	}
	// Every plan stalls, so one report per group is in the worker or the
	// one-slot queue and the others are shed.
	faultinject.Arm(faultinject.Script{faultinject.EnginePlan: faultinject.StallEvery(1, 20*time.Millisecond)})
	defer faultinject.Disarm()
	for step := 1; step <= 3; step++ {
		for gid := uint32(1); gid <= groups; gid++ {
			srv.submit(gid, []uint32{1}, at(gid, step))
		}
	}
	faultinject.Disarm()
	srv.close()

	shed := srv.eng.Shed()
	if shed == 0 {
		t.Fatal("the stalled one-slot queue never shed a report")
	}
	m := regexp.MustCompile(` shed=(\d+)`).FindStringSubmatch(logs.String())
	if m == nil {
		t.Fatalf("no shed= on the shutdown line:\n%s", logs.String())
	}
	if got, _ := strconv.ParseUint(m[1], 10, 64); got != shed {
		t.Fatalf("shutdown line says shed=%d, the engine shed %d", got, shed)
	}
}

// TestTiledFleetOutcomeCounters drives a closed-loop tiled fleet over
// loopback on an incremental server, where every report is an escape
// from the region the member holds: the snapshot's outcome counts sum to
// the plans the engine committed, and none of them is kept.
func TestTiledFleetOutcomeCounters(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	pois := make([]geom.Point, 800)
	for i := range pois {
		pois[i] = geom.Pt(rng.Float64(), rng.Float64())
	}
	srv, err := newServer(serverConfig{
		pois: pois, method: "tiled", agg: "max", alpha: 5, buffer: 20,
		shards: 2, workers: 1, incremental: true,
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

	const groups, members, rounds = 3, 2, 6
	fleet := make([][]*e2eUser, groups)
	locs := make([][]geom.Point, groups)
	for g := range fleet {
		for m := 0; m < members; m++ {
			p := geom.Pt(0.3+0.2*float64(g)+0.03*float64(m), 0.4+0.02*float64(m))
			locs[g] = append(locs[g], p)
			fleet[g] = append(fleet[g], dialUser(t, ln.Addr().String(), uint32(g+1), uint32(m), p))
		}
		for _, u := range fleet[g] {
			if err := u.client.Register(members); err != nil {
				t.Fatal(err)
			}
		}
		for _, u := range fleet[g] {
			u.waitNotify(t)
		}
	}
	for r := 0; r < rounds; r++ {
		for g, group := range fleet {
			// One member walks in small steps until she escapes her region,
			// reports, and every member's notification arrives before the
			// next op, so each report is checked against the current plan.
			m := r % members
			angle := rng.Float64() * 2 * math.Pi
			p := locs[g][m]
			for !group[m].client.NeedsUpdate(p) {
				p = geom.Pt(p.X+0.004*math.Cos(angle), p.Y+0.004*math.Sin(angle))
			}
			locs[g][m] = p
			group[m].setLoc(p)
			if err := group[m].client.Report(); err != nil {
				t.Fatal(err)
			}
			for _, u := range group {
				u.waitNotify(t)
			}
		}
	}

	var committed uint64
	srv.mu.Lock()
	for _, eid := range srv.gidToEngine {
		committed += uint64(srv.eng.Updates(eid))
	}
	srv.mu.Unlock()
	c := srv.snapshot().Engine
	full, partial, kept := c.Plans[core.IncFull], c.Plans[core.IncPartial], c.Plans[core.IncKept]
	t.Logf("full=%d partial=%d kept=%d tile-verifies=%d index-accesses=%d", full, partial, kept, c.TileVerifies, c.IndexAccesses)
	if want := uint64(groups * (1 + rounds)); committed != want {
		t.Fatalf("engine committed %d plans, want %d (one registration and one per escape)", committed, want)
	}
	if full+partial+kept != committed {
		t.Fatalf("outcome counts sum to %d, want the %d committed plans", full+partial+kept, committed)
	}
	if kept != 0 {
		t.Fatalf("%d plans kept on a fleet where every report is an escape", kept)
	}
	if c.TileVerifies == 0 {
		t.Fatal("tile plans counted no tile verifications")
	}
}
