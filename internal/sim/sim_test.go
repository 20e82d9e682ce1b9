package sim

import (
	"testing"

	"mpn/internal/core"
	"mpn/internal/geom"
	"mpn/internal/gnn"
	"mpn/internal/mobility"
	"mpn/internal/workload"
)

// testWorkload builds a small but realistic POI set and trajectory group.
func testWorkload(t testing.TB, m int) ([]geom.Point, []mobility.Trajectory) {
	t.Helper()
	poiCfg := workload.DefaultPOIConfig()
	poiCfg.N = 2000
	pts, err := workload.GeneratePOIs(poiCfg)
	if err != nil {
		t.Fatal(err)
	}
	set, err := workload.GenerateGeoLifeSet(workload.SetConfig{
		NumTrajectories: m, Steps: 600, Speed: 0.0008, Seed: 11,
	})
	if err != nil {
		t.Fatal(err)
	}
	return pts, set.Trajs
}

func quickConfig(method Method) Config {
	cfg := MethodConfig(method, gnn.Max, 0)
	cfg.Core.TileLimit = 8
	cfg.MaxSteps = 400
	return cfg
}

func TestRunCircle(t *testing.T) {
	pts, group := testWorkload(t, 3)
	met, err := Run(pts, group, quickConfig(MethodCircle))
	if err != nil {
		t.Fatal(err)
	}
	if met.Timestamps != 400 {
		t.Fatalf("timestamps=%d", met.Timestamps)
	}
	if met.Updates < 2 {
		t.Fatalf("suspiciously few updates: %d", met.Updates)
	}
	if met.Packets == 0 || met.UplinkMessages == 0 || met.DownlinkMessages == 0 {
		t.Fatalf("empty accounting: %+v", met)
	}
	if met.UpdateFrequency() <= 0 || met.PacketsPerK() <= 0 {
		t.Fatal("derived metrics must be positive")
	}
}

func TestTileBeatsCircleOnUpdates(t *testing.T) {
	// The paper's headline: tile-based safe regions at least halve the
	// update frequency of circles (Fig. 13). With a small α the gap may
	// be narrower, but Tile must not lose.
	pts, group := testWorkload(t, 3)
	circ, err := Run(pts, group, quickConfig(MethodCircle))
	if err != nil {
		t.Fatal(err)
	}
	tile, err := Run(pts, group, quickConfig(MethodTile))
	if err != nil {
		t.Fatal(err)
	}
	if tile.Updates >= circ.Updates {
		t.Fatalf("Tile updates %d not below Circle %d", tile.Updates, circ.Updates)
	}
}

func TestTileDNotWorseThanTile(t *testing.T) {
	pts, group := testWorkload(t, 3)
	tile, err := Run(pts, group, quickConfig(MethodTile))
	if err != nil {
		t.Fatal(err)
	}
	tiled, err := Run(pts, group, quickConfig(MethodTileD))
	if err != nil {
		t.Fatal(err)
	}
	// Directed ordering targets the travel cone; allow a modest slack
	// since small workloads are noisy.
	if float64(tiled.Updates) > 1.3*float64(tile.Updates) {
		t.Fatalf("Tile-D updates %d much worse than Tile %d", tiled.Updates, tile.Updates)
	}
}

func TestBufferedFasterThanUnbuffered(t *testing.T) {
	pts, group := testWorkload(t, 3)
	plain := quickConfig(MethodTileD)
	buffered := quickConfig(MethodTileD)
	buffered.Core.Buffer = 50

	pm, err := Run(pts, group, plain)
	if err != nil {
		t.Fatal(err)
	}
	bm, err := Run(pts, group, buffered)
	if err != nil {
		t.Fatal(err)
	}
	// The buffered variant accesses the index once per update.
	if bm.PlanStats.IndexAccesses != bm.Updates {
		t.Fatalf("buffered index accesses %d != updates %d",
			bm.PlanStats.IndexAccesses, bm.Updates)
	}
	if pm.PlanStats.IndexAccesses <= pm.Updates {
		t.Fatalf("unbuffered should access the index repeatedly: %d accesses over %d updates",
			pm.PlanStats.IndexAccesses, pm.Updates)
	}
}

func TestRunSumAggregate(t *testing.T) {
	pts, group := testWorkload(t, 3)
	cfg := MethodConfig(MethodTile, gnn.Sum, 0)
	cfg.Core.TileLimit = 5
	cfg.MaxSteps = 200
	met, err := Run(pts, group, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if met.Updates < 1 {
		t.Fatal("no updates")
	}
}

func TestRunErrors(t *testing.T) {
	pts, group := testWorkload(t, 2)
	if _, err := Run(pts, nil, quickConfig(MethodCircle)); err != ErrNoGroup {
		t.Fatalf("want ErrNoGroup got %v", err)
	}
	short := []mobility.Trajectory{group[0][:1]}
	if _, err := Run(pts, short, quickConfig(MethodCircle)); err != ErrShortTraject {
		t.Fatalf("want ErrShortTraject got %v", err)
	}
	if _, err := Run(nil, group, quickConfig(MethodCircle)); err == nil {
		t.Fatal("empty POI set accepted")
	}
}

func TestPacketAccounting(t *testing.T) {
	pts, group := testWorkload(t, 3)
	met, err := Run(pts, group, quickConfig(MethodCircle))
	if err != nil {
		t.Fatal(err)
	}
	m := len(group)
	// Circle regions always fit one packet, so per non-initial update:
	// 1 report + 2(m−1) probe packets + m notifications. Initial update:
	// m reports + m notifications.
	perUpdate := 1 + 2*(m-1) + m
	wantPackets := m + m + (met.Updates-1)*perUpdate
	if met.Packets != wantPackets {
		t.Fatalf("packets=%d want %d (updates=%d)", met.Packets, wantPackets, met.Updates)
	}
	// Message counts match the protocol.
	wantUp := m + (met.Updates-1)*(1+(m-1))
	if met.UplinkMessages != wantUp {
		t.Fatalf("uplink=%d want %d", met.UplinkMessages, wantUp)
	}
}

func TestMethodString(t *testing.T) {
	if MethodCircle.String() != "Circle" || MethodTile.String() != "Tile" || MethodTileD.String() != "Tile-D" {
		t.Fatal("method names")
	}
}

func TestDirectedFlagForcedByMethod(t *testing.T) {
	pts, group := testWorkload(t, 2)
	cfg := quickConfig(MethodTile)
	cfg.Core.Directed = true // must be overridden to false for plain Tile
	if _, err := Run(pts, group, cfg); err != nil {
		t.Fatal(err)
	}
	cfg = quickConfig(MethodTileD)
	cfg.Core.Directed = false // must be overridden to true for Tile-D
	if _, err := Run(pts, group, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestMetricsZeroDivision(t *testing.T) {
	var m Metrics
	if m.UpdateFrequency() != 0 || m.PacketsPerK() != 0 || m.CPUPerUpdate() != 0 {
		t.Fatal("zero metrics should not divide by zero")
	}
}

func TestRegionBytes(t *testing.T) {
	c := core.CircleRegion(geom.Pt(0.5, 0.5), 0.1)
	if got := regionBytes(c); got != 24 {
		t.Fatalf("circle bytes=%d want 24", got)
	}
}
