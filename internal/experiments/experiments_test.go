package experiments

import (
	"strings"
	"testing"
)

// tinyScale keeps the harness tests fast while exercising every code path.
var tinyScale = Scale{
	Steps: 120, NumGroups: 1, NumTrajectories: 6,
	POIN: 1500, Speed: 0.0008, Seed: 7,
}

func tinySuite(t testing.TB) *Suite {
	t.Helper()
	s, err := NewSuite(tinyScale)
	if err != nil {
		t.Fatal(err)
	}
	// Shrink the parameter grid so one test run covers every figure
	// without minutes of wall clock.
	s.Params.GroupSizes = []int{2, 3}
	s.Params.DataFracs = []float64{0.5, 1.0}
	s.Params.SpeedFracs = []float64{0.5, 1.0}
	s.Params.Buffers = []int{10, 50}
	return s
}

// figureSweep marks a test that replays whole figures — together they are
// most of this package's (and tier-1's) wall time — so `go test -short`
// skips them; tier-1 and CI run without -short.
func figureSweep(t *testing.T) {
	t.Helper()
	if testing.Short() {
		t.Skip("figure sweep skipped under -short")
	}
}

func TestNewSuite(t *testing.T) {
	s := tinySuite(t)
	if len(s.POIs) != tinyScale.POIN {
		t.Fatalf("POIs=%d", len(s.POIs))
	}
	if len(s.Sets) != 2 || s.Sets[0].Name != "geolife" || s.Sets[1].Name != "oldenburg" {
		t.Fatalf("unexpected sets")
	}
	if _, err := NewSuite(Scale{}); err == nil {
		t.Fatal("zero scale accepted")
	}
}

func TestFig13Shape(t *testing.T) {
	figureSweep(t)
	s := tinySuite(t)
	figs, err := s.Fig13()
	if err != nil {
		t.Fatal(err)
	}
	if len(figs) != 6 { // 3 metrics × 2 data sets
		t.Fatalf("Fig13 produced %d sub-figures want 6", len(figs))
	}
	for _, f := range figs {
		if len(f.Rows) != len(s.Params.GroupSizes) {
			t.Fatalf("%s: %d rows want %d", f.ID, len(f.Rows), len(s.Params.GroupSizes))
		}
		if len(f.Series) != 3 {
			t.Fatalf("%s: series %v", f.ID, f.Series)
		}
		for _, row := range f.Rows {
			for _, series := range f.Series {
				if v := row.Get(series); v < 0 {
					t.Fatalf("%s: negative metric %v", f.ID, v)
				}
			}
		}
	}
	// The update-frequency sub-figures must show Tile ≤ Circle.
	for _, f := range figs[:2] {
		for _, row := range f.Rows {
			if row.Get("Tile") > row.Get("Circle") {
				t.Fatalf("%s row %s: Tile %v > Circle %v",
					f.ID, row.X, row.Get("Tile"), row.Get("Circle"))
			}
		}
	}
}

func TestFig14Shape(t *testing.T) {
	figureSweep(t)
	s := tinySuite(t)
	figs, err := s.Fig14()
	if err != nil {
		t.Fatal(err)
	}
	if len(figs) != 4 { // 2 metrics × 2 data sets
		t.Fatalf("Fig14 produced %d figures", len(figs))
	}
}

func TestFig15Shape(t *testing.T) {
	figureSweep(t)
	s := tinySuite(t)
	figs, err := s.Fig15()
	if err != nil {
		t.Fatal(err)
	}
	if len(figs) != 4 {
		t.Fatalf("Fig15 produced %d figures", len(figs))
	}
	// Update frequency must not decrease with speed (faster users escape
	// sooner) — compare first and last row per series.
	for _, f := range figs[:2] {
		first, last := f.Rows[0], f.Rows[len(f.Rows)-1]
		for _, series := range f.Series {
			if last.Get(series) < first.Get(series)*0.5 {
				t.Fatalf("%s %s: updates dropped sharply with speed (%v -> %v)",
					f.ID, series, first.Get(series), last.Get(series))
			}
		}
	}
}

func TestFig16Shape(t *testing.T) {
	figureSweep(t)
	s := tinySuite(t)
	figs, err := s.Fig16()
	if err != nil {
		t.Fatal(err)
	}
	if len(figs) != 4 {
		t.Fatalf("Fig16 produced %d figures", len(figs))
	}
	for _, f := range figs {
		if len(f.Series) != 2 || f.Series[0] != "Tile-D" || f.Series[1] != "Tile-D-b" {
			t.Fatalf("%s: series %v", f.ID, f.Series)
		}
		if len(f.Rows) != len(s.Params.Buffers) {
			t.Fatalf("%s: rows %d", f.ID, len(f.Rows))
		}
	}
}

func TestFigSumVariants(t *testing.T) {
	figureSweep(t)
	s := tinySuite(t)
	if figs, err := s.Fig17(); err != nil || len(figs) != 6 {
		t.Fatalf("Fig17: %v / %d figures", err, len(figs))
	}
	if figs, err := s.Fig18(); err != nil || len(figs) != 4 {
		t.Fatalf("Fig18: %v / %d figures", err, len(figs))
	}
	if figs, err := s.Fig19(); err != nil || len(figs) != 4 {
		t.Fatalf("Fig19: %v / %d figures", err, len(figs))
	}
}

func TestFigureTable(t *testing.T) {
	f := Figure{
		ID: "FigX", Title: "demo", XLabel: "m", Metric: "updates",
		Series: []string{"A", "B"},
		Rows: []Row{
			{X: "m=2", Values: map[string]float64{"A": 1, "B": 2}},
		},
	}
	out := f.Table()
	for _, want := range []string{"FigX", "demo", "m=2", "A", "B"} {
		if !strings.Contains(out, want) {
			t.Fatalf("table missing %q:\n%s", want, out)
		}
	}
}

// TestIncrementalHarness replays Fig13 under the paper's incremental
// maintenance protocol: the harness must produce the same figure
// structure with sane (non-negative) metrics.
func TestIncrementalHarness(t *testing.T) {
	figureSweep(t)
	s := tinySuite(t)
	s.Incremental = true
	figs, err := s.Fig13()
	if err != nil {
		t.Fatal(err)
	}
	if len(figs) != 6 {
		t.Fatalf("incremental Fig13 produced %d sub-figures want 6", len(figs))
	}
	for _, f := range figs {
		for _, row := range f.Rows {
			for _, series := range f.Series {
				if v := row.Get(series); v < 0 {
					t.Fatalf("%s: negative metric %v", f.ID, v)
				}
			}
		}
	}
}
