package mobility

import (
	"math"
	"testing"

	"mpn/internal/geom"
	"mpn/internal/roadnet"
)

func TestGeoLifeStyleBasics(t *testing.T) {
	cfg := DefaultWaypointConfig()
	cfg.Steps = 5000
	traj, err := GeoLifeStyle(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(traj) != cfg.Steps {
		t.Fatalf("len=%d want %d", len(traj), cfg.Steps)
	}
	for i, p := range traj {
		if p.X < 0 || p.X > 1 || p.Y < 0 || p.Y > 1 {
			t.Fatalf("step %d escapes unit square: %v", i, p)
		}
		if i > 0 {
			if d := traj[i-1].Dist(p); d > cfg.Speed+1e-12 {
				t.Fatalf("step %d moved %v > speed %v", i, d, cfg.Speed)
			}
		}
	}
}

func TestGeoLifeStyleDeterminism(t *testing.T) {
	cfg := DefaultWaypointConfig()
	cfg.Steps = 100
	a, _ := GeoLifeStyle(cfg)
	b, _ := GeoLifeStyle(cfg)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("same seed diverged")
		}
	}
	cfg.Seed = 2
	c, _ := GeoLifeStyle(cfg)
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds produced identical trajectories")
	}
}

func TestGeoLifeStyleHeadingPersistence(t *testing.T) {
	// With small TurnSigma, consecutive step directions should correlate:
	// mean absolute turn per step well below a uniform-random baseline
	// (π/2).
	cfg := DefaultWaypointConfig()
	cfg.Steps = 4000
	cfg.TurnProb = 0
	cfg.TurnSigma = 0.05
	traj, _ := GeoLifeStyle(cfg)
	sum, cnt := 0.0, 0
	for i := 2; i < len(traj); i++ {
		v1 := traj[i-1].Sub(traj[i-2])
		v2 := traj[i].Sub(traj[i-1])
		if v1.Norm() == 0 || v2.Norm() == 0 {
			continue
		}
		sum += geom.AngleDiff(v1.Angle(), v2.Angle())
		cnt++
	}
	if mean := sum / float64(cnt); mean > 0.3 {
		t.Fatalf("mean turn %v too large for persistent heading", mean)
	}
}

func TestGeoLifeStyleErrors(t *testing.T) {
	if _, err := GeoLifeStyle(WaypointConfig{Steps: 0}); err == nil {
		t.Fatal("Steps=0 accepted")
	}
	if _, err := GeoLifeStyle(WaypointConfig{Steps: 5, Speed: -1}); err == nil {
		t.Fatal("negative speed accepted")
	}
}

func testNetwork(t testing.TB) *roadnet.Network {
	t.Helper()
	net, err := roadnet.Generate(roadnet.Config{
		Rows: 15, Cols: 15, Jitter: 0.2, DropFrac: 0.1, Arterials: 5, Seed: 7,
	})
	if err != nil {
		t.Fatal(err)
	}
	return net
}

func TestNetworkTrajectoryBasics(t *testing.T) {
	net := testNetwork(t)
	cfg := DefaultNetworkConfig()
	cfg.Steps = 3000
	traj, err := NetworkTrajectory(net, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(traj) != cfg.Steps {
		t.Fatalf("len=%d want %d", len(traj), cfg.Steps)
	}
	for i := 1; i < len(traj); i++ {
		if d := traj[i-1].Dist(traj[i]); d > cfg.Speed+1e-9 {
			t.Fatalf("step %d moved %v > speed %v", i, d, cfg.Speed)
		}
	}
	// Positions should hug the network: every sample within a short
	// distance of some node or edge — check via nearest node distance
	// bounded by max edge length.
	maxEdge := 0.0
	for a := range net.Adj {
		for _, e := range net.Adj[a] {
			if e.Len > maxEdge {
				maxEdge = e.Len
			}
		}
	}
	for i, p := range traj {
		near := math.Inf(1)
		for _, nd := range net.Nodes {
			near = min(near, nd.P.Dist(p))
		}
		if near > maxEdge {
			t.Fatalf("step %d strayed from network: %v", i, p)
		}
	}
}

func TestNetworkTrajectoryErrors(t *testing.T) {
	net := testNetwork(t)
	if _, err := NetworkTrajectory(net, NetworkConfig{Steps: 0}); err == nil {
		t.Fatal("Steps=0 accepted")
	}
	if _, err := NetworkTrajectory(nil, DefaultNetworkConfig()); err == nil {
		t.Fatal("nil network accepted")
	}
}

func TestResampleSpeed(t *testing.T) {
	cfg := DefaultWaypointConfig()
	cfg.Steps = 2000
	traj, _ := GeoLifeStyle(cfg)

	full, err := ResampleSpeed(traj, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	if len(full) != len(traj) {
		t.Fatalf("len=%d", len(full))
	}

	half, err := ResampleSpeed(traj, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if len(half) != len(traj) {
		t.Fatalf("len=%d", len(half))
	}
	// Half-speed trajectory must cover roughly half the arc length.
	if ratio := arcLen(half) / arcLen(traj); ratio < 0.3 || ratio > 0.7 {
		t.Fatalf("half-speed arc ratio %v not ≈ 0.5", ratio)
	}
	// It must start where the original starts and end near the midpoint
	// sample of the original.
	if half[0] != traj[0] {
		t.Fatal("resampled start moved")
	}
	mid := traj[len(traj)/2-1]
	if half[len(half)-1].Dist(mid) > 0.01 {
		t.Fatalf("resampled end %v far from original midpoint %v", half[len(half)-1], mid)
	}
	// Per-step displacement should be nearly uniform.
	maxStep, minStep := 0.0, math.Inf(1)
	for i := 1; i < len(half); i++ {
		d := half[i-1].Dist(half[i])
		if d > maxStep {
			maxStep = d
		}
		if d < minStep {
			minStep = d
		}
	}
	if maxStep > 3*cfg.Speed {
		t.Fatalf("resampled step %v too large", maxStep)
	}
}

func arcLen(tr Trajectory) float64 {
	s := 0.0
	for i := 1; i < len(tr); i++ {
		s += tr[i-1].Dist(tr[i])
	}
	return s
}

func TestResampleSpeedErrors(t *testing.T) {
	traj := Trajectory{geom.Pt(0, 0), geom.Pt(1, 0)}
	for _, f := range []float64{0, -0.5, 1.5} {
		if _, err := ResampleSpeed(traj, f); err == nil {
			t.Fatalf("fraction %v accepted", f)
		}
	}
	if _, err := ResampleSpeed(nil, 0.5); err == nil {
		t.Fatal("empty trajectory accepted")
	}
}

func TestResampleSpeedStationary(t *testing.T) {
	traj := Trajectory{geom.Pt(0.5, 0.5), geom.Pt(0.5, 0.5), geom.Pt(0.5, 0.5)}
	out, err := ResampleSpeed(traj, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range out {
		if p != geom.Pt(0.5, 0.5) {
			t.Fatal("stationary resample moved")
		}
	}
}

func TestHeading(t *testing.T) {
	traj := Trajectory{
		geom.Pt(0, 0), geom.Pt(1, 0), geom.Pt(2, 0), geom.Pt(2, 1),
	}
	if h := Heading(traj, 2, 2); math.Abs(h) > 1e-12 {
		t.Fatalf("eastward heading=%v", h)
	}
	// Displacement from (1,0) to (2,1): 45°.
	if h := Heading(traj, 3, 2); math.Abs(h-math.Pi/4) > 1e-12 {
		t.Fatalf("heading=%v want π/4", h)
	}
	// Edge cases.
	if h := Heading(traj, 0, 5); h != 0 {
		t.Fatal("t=0 heading should be 0")
	}
	if h := Heading(nil, 3, 2); h != 0 {
		t.Fatal("empty trajectory heading should be 0")
	}
	if h := Heading(traj, 99, 1); math.Abs(h-math.Pi/2) > 1e-12 {
		t.Fatalf("clamped-t heading=%v want π/2", h)
	}
}

func TestDeviationBound(t *testing.T) {
	// Straight line: deviation clamps to minTheta.
	straight := Trajectory{geom.Pt(0, 0), geom.Pt(1, 0), geom.Pt(2, 0), geom.Pt(3, 0)}
	if d := DeviationBound(straight, 3, 3, 0.2); d != 0.2 {
		t.Fatalf("straight deviation=%v want clamp 0.2", d)
	}
	// Right-angle turn: deviation at least π/4 relative to the mean
	// heading.
	turn := Trajectory{geom.Pt(0, 0), geom.Pt(1, 0), geom.Pt(1, 1)}
	if d := DeviationBound(turn, 2, 2, 0.1); d < math.Pi/4-1e-9 {
		t.Fatalf("turn deviation=%v", d)
	}
}

func BenchmarkGeoLifeStyle10k(b *testing.B) {
	cfg := DefaultWaypointConfig()
	for i := 0; i < b.N; i++ {
		cfg.Seed = int64(i)
		if _, err := GeoLifeStyle(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkNetworkTrajectory10k(b *testing.B) {
	net := testNetwork(b)
	cfg := DefaultNetworkConfig()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cfg.Seed = int64(i)
		if _, err := NetworkTrajectory(net, cfg); err != nil {
			b.Fatal(err)
		}
	}
}
