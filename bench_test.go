// This file regenerates every figure of the paper's evaluation as Go
// benchmarks (one per figure, at the reduced Bench scale; run cmd/mpnbench
// for the full tables) plus the ablation benchmarks called out in
// DESIGN.md. Each figure benchmark reports the headline series values via
// b.ReportMetric so `go test -bench` output shows the paper's comparison
// directly:
//
//	Circle-upd/k, Tile-upd/k, TileD-upd/k   update frequency per method
//	...-pkt/k                               packets per 1k timestamps
//	...-cpu-ms                              CPU ms per update
package mpn

import (
	"math/rand"
	"testing"

	"mpn/internal/core"
	"mpn/internal/experiments"
)

// benchSuite is built once and shared across figure benchmarks.
var benchSuiteCache *experiments.Suite

func benchSuite(b *testing.B) *experiments.Suite {
	b.Helper()
	if benchSuiteCache == nil {
		s, err := experiments.NewSuite(experiments.Bench)
		if err != nil {
			b.Fatal(err)
		}
		// Trim sweeps to the ends of each range: benchmarks check shape,
		// cmd/mpnbench prints the full grid.
		s.Params.GroupSizes = []int{2, 6}
		s.Params.DataFracs = []float64{0.25, 1.0}
		s.Params.SpeedFracs = []float64{0.25, 1.0}
		s.Params.Buffers = []int{10, 100}
		benchSuiteCache = s
	}
	return benchSuiteCache
}

// reportFigure pushes the last row of the first sub-figure (the paper's
// headline comparison at the largest x) into the benchmark metrics.
func reportFigure(b *testing.B, figs []experiments.Figure, unit string) {
	b.Helper()
	if len(figs) == 0 || len(figs[0].Rows) == 0 {
		b.Fatal("empty figure")
	}
	row := figs[0].Rows[len(figs[0].Rows)-1]
	for _, s := range figs[0].Series {
		b.ReportMetric(row.Get(s), s+"-"+unit)
	}
}

func benchFigure(b *testing.B, gen func() ([]experiments.Figure, error), unit string) {
	var figs []experiments.Figure
	var err error
	for i := 0; i < b.N; i++ {
		figs, err = gen()
		if err != nil {
			b.Fatal(err)
		}
	}
	reportFigure(b, figs, unit)
}

func BenchmarkFig13GroupSize(b *testing.B) {
	s := benchSuite(b)
	benchFigure(b, s.Fig13, "upd/k")
}

func BenchmarkFig14DataSize(b *testing.B) {
	s := benchSuite(b)
	benchFigure(b, s.Fig14, "upd/k")
}

func BenchmarkFig15Speed(b *testing.B) {
	s := benchSuite(b)
	benchFigure(b, s.Fig15, "upd/k")
}

func BenchmarkFig16Buffer(b *testing.B) {
	s := benchSuite(b)
	benchFigure(b, s.Fig16, "cpu-ms")
}

func BenchmarkFig17SumGroupSize(b *testing.B) {
	s := benchSuite(b)
	benchFigure(b, s.Fig17, "upd/k")
}

func BenchmarkFig18SumDataSize(b *testing.B) {
	s := benchSuite(b)
	benchFigure(b, s.Fig18, "upd/k")
}

func BenchmarkFig19SumBuffer(b *testing.B) {
	s := benchSuite(b)
	benchFigure(b, s.Fig19, "cpu-ms")
}

// --- ablation benchmarks ---------------------------------------------------
//
// These isolate one safe-region computation (no trajectory replay) and
// toggle a single design choice, quantifying the optimizations the paper
// motivates: GT-Verify vs IT-Verify, Theorem 3 index pruning, the
// directed ordering, the split level L, and the tile limit α.

func ablationPlanner(b *testing.B, n int, mod func(*core.Options)) (*core.Planner, []Point) {
	b.Helper()
	rng := rand.New(rand.NewSource(99))
	pois := make([]Point, n)
	for i := range pois {
		pois[i] = Pt(rng.Float64(), rng.Float64())
	}
	opts := core.DefaultOptions()
	opts.TileLimit = 10
	if mod != nil {
		mod(&opts)
	}
	pl, err := core.NewPlanner(pois, opts)
	if err != nil {
		b.Fatal(err)
	}
	users := []Point{Pt(0.48, 0.5), Pt(0.52, 0.49), Pt(0.5, 0.53)}
	return pl, users
}

func benchTilePlan(b *testing.B, n int, mod func(*core.Options)) {
	pl, users := ablationPlanner(b, n, mod)
	ws := core.NewWorkspace()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := pl.Plan(ws, core.PlanRequest{Kind: core.KindTiles, Users: users}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblationVerify(b *testing.B) {
	b.Run("GT-Verify", func(b *testing.B) {
		benchTilePlan(b, 2000, func(o *core.Options) { o.GroupVerify = true })
	})
	b.Run("IT-Verify", func(b *testing.B) {
		benchTilePlan(b, 2000, func(o *core.Options) { o.GroupVerify = false })
	})
}

func BenchmarkAblationPruning(b *testing.B) {
	b.Run("pruning-on", func(b *testing.B) {
		benchTilePlan(b, 8000, func(o *core.Options) { o.IndexPruning = true })
	})
	b.Run("pruning-off", func(b *testing.B) {
		benchTilePlan(b, 8000, func(o *core.Options) { o.IndexPruning = false })
	})
}

func BenchmarkAblationOrdering(b *testing.B) {
	b.Run("undirected", func(b *testing.B) {
		benchTilePlan(b, 8000, nil)
	})
	b.Run("directed", func(b *testing.B) {
		pl, users := ablationPlanner(b, 8000, func(o *core.Options) { o.Directed = true })
		dirs := []core.Direction{{Angle: 0.3}, {Angle: 0.4}, {Angle: 0.2}}
		ws := core.NewWorkspace()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, _, err := pl.Plan(ws, core.PlanRequest{Kind: core.KindTiles, Users: users, Dirs: dirs}); err != nil {
				b.Fatal(err)
			}
		}
	})
}

func BenchmarkAblationSplitLevel(b *testing.B) {
	for _, l := range []int{0, 1, 2, 3} {
		level := l
		b.Run(string(rune('L'))+string(rune('0'+level)), func(b *testing.B) {
			benchTilePlan(b, 8000, func(o *core.Options) { o.SplitLevel = level })
		})
	}
}

func BenchmarkAblationTileLimit(b *testing.B) {
	for _, a := range []int{10, 20, 30, 40} {
		alpha := a
		name := "alpha" + string(rune('0'+alpha/10)) + "0"
		b.Run(name, func(b *testing.B) {
			benchTilePlan(b, 8000, func(o *core.Options) { o.TileLimit = alpha })
		})
	}
}

func BenchmarkAblationBuffering(b *testing.B) {
	b.Run("unbuffered", func(b *testing.B) {
		benchTilePlan(b, 8000, nil)
	})
	b.Run("buffered-b100", func(b *testing.B) {
		benchTilePlan(b, 8000, func(o *core.Options) { o.Buffer = 100 })
	})
}

// benchServer builds a default server over paper-scale n with a fixed
// random POI set.
func benchServer(b *testing.B) (*Server, []Point) {
	b.Helper()
	rng := rand.New(rand.NewSource(1))
	pois := make([]Point, 21287)
	for i := range pois {
		pois[i] = Pt(rng.Float64(), rng.Float64())
	}
	server, err := NewServer(pois)
	if err != nil {
		b.Fatal(err)
	}
	users := []Point{Pt(0.5, 0.5), Pt(0.51, 0.52), Pt(0.49, 0.53)}
	return server, users
}

// BenchmarkPublicAPIPlan measures the end-user Plan call with the default
// (directed, buffered) configuration at paper-scale n.
func BenchmarkPublicAPIPlan(b *testing.B) {
	server, users := benchServer(b)
	defer server.Close()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, _, err := server.Plan(users, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSteadyStateUpdate measures the engine's synchronous
// recomputation path as a long-lived group sees it: one registered group,
// no subscribers, repeated Group.Update calls with slightly jittered
// locations. This is the hot loop whose steady-state allocation rate the
// workspace reuse drives to ~zero.
func BenchmarkSteadyStateUpdate(b *testing.B) {
	server, users := benchServer(b)
	defer server.Close()
	group, err := server.Register(users, nil)
	if err != nil {
		b.Fatal(err)
	}
	locs := make([]Point, len(users))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		jitter := 1e-5 * float64(i%7)
		for j, u := range users {
			locs[j] = Pt(u.X+jitter, u.Y-jitter)
		}
		if err := group.Update(locs, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSteadyStateUpdateIncremental is BenchmarkSteadyStateUpdate on
// a WithIncremental server: the identical jittered report stream leaves
// every member inside her retained region, so each update pays only the
// result-set recomputation and the containment re-verification instead
// of regrowing all regions — the paper's claim that most reports should
// cost next to nothing, measured end to end.
func BenchmarkSteadyStateUpdateIncremental(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	pois := make([]Point, 21287)
	for i := range pois {
		pois[i] = Pt(rng.Float64(), rng.Float64())
	}
	server, err := NewServer(pois, WithIncremental())
	if err != nil {
		b.Fatal(err)
	}
	defer server.Close()
	users := []Point{Pt(0.5, 0.5), Pt(0.51, 0.52), Pt(0.49, 0.53)}
	group, err := server.Register(users, nil)
	if err != nil {
		b.Fatal(err)
	}
	locs := make([]Point, len(users))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		jitter := 1e-5 * float64(i%7)
		for j, u := range users {
			locs[j] = Pt(u.X+jitter, u.Y-jitter)
		}
		if err := group.Update(locs, nil); err != nil {
			b.Fatal(err)
		}
	}
}
