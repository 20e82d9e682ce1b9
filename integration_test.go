package mpn

// Cross-module integration tests: the public API, the wire protocol, the
// simulator, and the cost model working against the same workloads.

import (
	"math"
	"math/rand"
	"net"
	"testing"
	"time"

	"mpn/internal/core"
	"mpn/internal/costmodel"
	"mpn/internal/geom"
	"mpn/internal/gnn"
	"mpn/internal/mobility"
	"mpn/internal/proto"
	"mpn/internal/sim"
	"mpn/internal/workload"
)

// TestEndToEndMovingGroup replays a mobility-model trajectory group
// against the public API and verifies the invariant users actually rely
// on: between updates, the reported meeting point is optimal for the
// current locations whenever everyone is inside their regions.
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

	server, err := NewServer(pois, WithMethod(TileDirected), WithTileLimit(8), WithBuffer(30))
	if err != nil {
		t.Fatal(err)
	}
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

	group, err := server.Register(locsAt(0), dirsAt(0))
	if err != nil {
		t.Fatal(err)
	}
	checked := 0
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
			continue
		}
		// Inside all regions: the reported point must be optimal now.
		if tm%17 == 0 {
			mp := group.MeetingPoint()
			mpDist := gnn.Max.PointDist(mp, locs)
			for _, p := range pois {
				if gnn.Max.PointDist(p, locs) < mpDist-1e-9 {
					t.Fatalf("t=%d: POI %v beats reported meeting point %v", tm, p, mp)
				}
			}
			checked++
		}
	}
	if checked == 0 {
		t.Fatal("invariant was never checked — users escaped every tick")
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

// TestCostModelRanksLikeSimulator checks the future-work cost model agrees
// with the simulator on method ordering for the same POI set.
func TestCostModelRanksLikeSimulator(t *testing.T) {
	poiCfg := workload.DefaultPOIConfig()
	poiCfg.N = 1500
	pois, err := workload.GeneratePOIs(poiCfg)
	if err != nil {
		t.Fatal(err)
	}
	set, err := workload.GenerateGeoLifeSet(workload.SetConfig{
		NumTrajectories: 3, Steps: 600, Speed: 0.0008, Seed: 41,
	})
	if err != nil {
		t.Fatal(err)
	}

	freq := map[sim.Method]float64{}
	pred := map[sim.Method]float64{}
	for _, m := range []sim.Method{sim.MethodCircle, sim.MethodTile} {
		cfg := sim.MethodConfig(m, gnn.Max, 0)
		cfg.Core.TileLimit = 8
		met, err := sim.Run(pois, set.Trajs, cfg)
		if err != nil {
			t.Fatal(err)
		}
		freq[m] = met.UpdateFrequency()

		opts := core.DefaultOptions()
		opts.TileLimit = 8
		est, err := costmodel.Predict(pois, costmodel.Config{
			Method: m, Core: opts, GroupSize: 3, Speed: 0.0008, Samples: 25, Seed: 41,
		})
		if err != nil {
			t.Fatal(err)
		}
		pred[m] = est.UpdateFreq
	}
	if (freq[sim.MethodTile] < freq[sim.MethodCircle]) != (pred[sim.MethodTile] < pred[sim.MethodCircle]) {
		t.Fatalf("model ordering disagrees with simulator: sim %v vs model %v", freq, pred)
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
