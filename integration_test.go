package mpn

// Cross-module integration tests: the public API and the wire protocol
// working against the same workloads.

import (
	"math"
	"math/rand"
	"net"
	"testing"
	"time"

	"mpn/internal/core"
	"mpn/internal/geom"
	"mpn/internal/mobility"
	"mpn/internal/proto"
	"mpn/internal/workload"
)

// TestEndToEndMovingGroup replays a mobility-model trajectory group
// against the public API, for every Euclidean method and both aggregates,
// and verifies the invariant users actually rely on: between updates,
// every member is inside the region the API returned for her, and the
// reported meeting point is optimal for the current locations.
func TestEndToEndMovingGroup(t *testing.T) {
	poiCfg := workload.DefaultPOIConfig()
	poiCfg.N = 1500
	pois, err := workload.GeneratePOIs(poiCfg)
	if err != nil {
		t.Fatal(err)
	}
	set, err := workload.GenerateGeoLifeSet(workload.SetConfig{
		NumTrajectories: 3, Steps: 300, Speed: 0.001, Seed: 21,
	})
	if err != nil {
		t.Fatal(err)
	}
	trajs := set.Trajs
	locsAt := func(tm int) []Point {
		out := make([]Point, len(trajs))
		for i, tr := range trajs {
			out[i] = tr[tm]
		}
		return out
	}
	dirsAt := func(tm int) []Direction {
		out := make([]Direction, len(trajs))
		for i, tr := range trajs {
			out[i] = Direction{
				Angle: mobility.Heading(tr, tm, 20),
				Theta: mobility.DeviationBound(tr, tm, 20, math.Pi/6),
			}
		}
		return out
	}

	for _, method := range []Method{TileDirected, Tile, Circle} {
		for _, agg := range []Aggregate{MinimizeMax, MinimizeSum} {
			t.Run(method.String()+"/"+agg.String(), func(t *testing.T) {
				server, err := NewServer(pois, WithMethod(method), WithAggregate(agg),
					WithTileLimit(8), WithBuffer(30))
				if err != nil {
					t.Fatal(err)
				}
				defer server.Close()
				group, err := server.Register(locsAt(0), dirsAt(0))
				if err != nil {
					t.Fatal(err)
				}
				quiet := 0
				for tm := 1; tm < 300; tm++ {
					locs := locsAt(tm)
					escaped := false
					for i, l := range locs {
						if group.NeedsUpdate(i, l) {
							escaped = true
							break
						}
					}
					if escaped {
						if err := group.Update(locs, dirsAt(tm)); err != nil {
							t.Fatal(err)
						}
					} else {
						quiet++
					}
					// Nobody needs an update (any more): each member is inside
					// her region and the reported point must be optimal now.
					for i, l := range locs {
						if !group.Region(i).Contains(l) {
							t.Fatalf("t=%d: member %d at %v is outside her region", tm, i, l)
						}
					}
					mp, dist := group.MeetingPoint(), agg.gnn()
					mpDist := dist.PointDist(mp, locs)
					for _, p := range pois {
						if dist.PointDist(p, locs) < mpDist-1e-9 {
							t.Fatalf("t=%d: POI %v beats reported meeting point %v", tm, p, mp)
						}
					}
				}
				// The three users are far apart, so the sum is flat around its
				// optimum and SUM regions here are ~1e-5 wide against a 1e-3
				// step: every SUM tick is an escape, checked right after its
				// replan. MAX must have ticks that rely on the regions alone.
				if quiet == 0 && agg == MinimizeMax {
					t.Fatal("invariant was never checked between updates — users escaped every tick")
				}
			})
		}
	}
}

// TestProtocolAgainstPublicPlanner runs the wire protocol with the public
// server's planner and checks the region a client decodes matches what
// the planner produced.
func TestProtocolAgainstPublicPlanner(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	pois := make([]Point, 600)
	for i := range pois {
		pois[i] = Pt(rng.Float64(), rng.Float64())
	}
	server, err := NewServer(pois, WithMethod(Tile), WithTileLimit(6))
	if err != nil {
		t.Fatal(err)
	}
	// A backend that answers every submission inline (ok=true) makes the
	// coordinator synchronous.
	coord := proto.NewAsyncCoordinator(func(_ uint32, _ []uint32, users []geom.Point) (geom.Point, []core.SafeRegion, []uint64, bool) {
		mp, regions, _, err := server.Plan(users, nil)
		return mp, regions, nil, err == nil
	}, nil)

	serverSide, clientSide := net.Pipe()
	go func() { _ = coord.ServeConn(serverSide) }()
	defer clientSide.Close()

	loc := Pt(0.4, 0.4)
	notified := make(chan core.SafeRegion, 1)
	client, err := proto.NewClient(clientSide, 1, 0,
		func() geom.Point { return loc },
		func(_ geom.Point, r core.SafeRegion) { notified <- r },
	)
	if err != nil {
		t.Fatal(err)
	}
	go func() { _ = client.Run() }()
	if err := client.Register(1); err != nil { // single-user group
		t.Fatal(err)
	}
	select {
	case r := <-notified:
		if !r.Contains(loc) {
			t.Fatal("decoded region misses the client location")
		}
		// Must agree with a direct plan for the same location.
		_, direct, _, err := server.Plan([]Point{loc}, nil)
		if err != nil {
			t.Fatal(err)
		}
		if r.NumTiles() != direct[0].NumTiles() {
			t.Fatalf("wire region has %d tiles, direct plan %d",
				r.NumTiles(), direct[0].NumTiles())
		}
	case <-time.After(5 * time.Second):
		t.Fatal("no notification")
	}
}

// TestRegionWireCompatibility checks mpn.EncodeRegion and the proto-layer
// codec interoperate byte-for-byte.
func TestRegionWireCompatibility(t *testing.T) {
	r := core.TileRegion(
		geom.RectAround(geom.Pt(0.4, 0.4), 0.02),
		geom.RectAround(geom.Pt(0.42, 0.4), 0.02),
	)
	enc := EncodeRegion(r)
	viaProto, err := proto.DecodeRegion(enc)
	if err != nil {
		t.Fatal(err)
	}
	viaPublic, err := DecodeRegion(enc)
	if err != nil {
		t.Fatal(err)
	}
	if viaProto.NumTiles() != viaPublic.NumTiles() {
		t.Fatal("codec layers disagree")
	}
	c := CircleRegionForTest()
	if dec, err := proto.DecodeRegion(EncodeRegion(c)); err != nil || dec.Circle != c.Circle {
		t.Fatalf("circle interop: %v %v", dec, err)
	}
}

// CircleRegionForTest builds a circle region without exporting internals
// in the public API surface.
func CircleRegionForTest() SafeRegion {
	return core.CircleRegion(geom.Pt(0.3, 0.7), 0.05)
}
