package main

import (
	"io"
	"log"
	"math"
	"math/rand"
	"net"
	"testing"

	"mpn/internal/core"
	"mpn/internal/geom"
)

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
	for _, r := range srv.gidToEngine {
		committed += uint64(srv.eng.Updates(r.eid))
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
