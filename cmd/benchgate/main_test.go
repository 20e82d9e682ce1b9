package main

import (
	"strings"
	"testing"

	"mpn/internal/benchfmt"
)

// baseReport is a small report that passes every rule against itself.
func baseReport() benchfmt.Report {
	return benchfmt.Report{
		GoMaxProcs: 1, POIs: 100, TileLimit: 10, Buffer: 50, ReplayOps: replayLen,
		Series: []benchfmt.Series{
			{Name: "plan", GroupSize: 2, NsPerOp: 20000, AllocsPerOp: 3, TileVerifies: 21504, CandidatesChecked: 21504, IndexAccesses: 896},
			{Name: "plan", GroupSize: 3, NsPerOp: 50000, AllocsPerOp: 3, TileVerifies: 353536, CandidatesChecked: 525696, IndexAccesses: 896},
			{Name: "update", GroupSize: 2, NsPerOp: 21000, AllocsPerOp: 3},
			{Name: "update_inc", GroupSize: 3, NsPerOp: 8000, AllocsPerOp: 1},
			{Name: "notify_bytes_full", GroupSize: 6, WireBytes: 375},
			{Name: "notify_bytes_delta", GroupSize: 6, WireBytes: 60},
			{Name: "notify_encode_full", GroupSize: 6, NsPerOp: 7000, AllocsPerOp: 6},
			{Name: "durable_update", GroupSize: 3, NsPerOp: 10000, AllocsPerOp: 4},
			{Name: "repl_ship", GroupSize: 3, NsPerOp: 11000, AllocsPerOp: 9},
			{Name: "net_plan_naive", GroupSize: 3, NsPerOp: 490000, AllocsPerOp: 57},
			{Name: "net_plan", GroupSize: 3, NsPerOp: 9600, AllocsPerOp: 50},
		},
	}
}

const replayLen = 896

// series returns a pointer to r's series name at m.
func series(t *testing.T, r *benchfmt.Report, name string, m int) *benchfmt.Series {
	for i := range r.Series {
		if r.Series[i].Name == name && r.Series[i].GroupSize == m {
			return &r.Series[i]
		}
	}
	t.Fatalf("no series %s m=%d", name, m)
	return nil
}

func TestGateRules(t *testing.T) {
	cases := []struct {
		name string
		// cur edits the current report; both, when set, edits both.
		cur, both func(t *testing.T, r *benchfmt.Report)
		fails     int
		output    string // must appear in the gate's output
	}{
		{name: "identical reports pass", output: "net plan speedup"},
		{name: "a count +1 fails", fails: 1, output: "FAIL tile verifies 21504→21505",
			cur: func(t *testing.T, r *benchfmt.Report) { series(t, r, "plan", 2).TileVerifies++ }},
		{name: "a count −1 passes", output: "index accesses 896→895 improved, re-record the baseline",
			cur: func(t *testing.T, r *benchfmt.Report) { series(t, r, "plan", 3).IndexAccesses-- }},
		{name: "an alloc +1 fails", fails: 1, output: "FAIL allocs/op 1→2",
			cur: func(t *testing.T, r *benchfmt.Report) { series(t, r, "update_inc", 3).AllocsPerOp++ }},
		{name: "a wire byte +1 fails", fails: 1, output: "FAIL wire bytes 375→376",
			cur: func(t *testing.T, r *benchfmt.Report) { series(t, r, "notify_bytes_full", 6).WireBytes++ }},
		{name: "a missing series fails", fails: 1, output: "FAIL missing",
			cur: func(t *testing.T, r *benchfmt.Report) { r.Series = r.Series[1:] }},
		{name: "a new series passes", output: "new series",
			cur: func(t *testing.T, r *benchfmt.Report) {
				r.Series = append(r.Series, benchfmt.Series{Name: "plan", GroupSize: 7, NsPerOp: 1, AllocsPerOp: 99})
			}},
		{name: "ns/op ×2.1 fails", fails: 1, output: "+110.0%  FAIL ns/op",
			cur: func(t *testing.T, r *benchfmt.Report) { series(t, r, "plan", 2).NsPerOp *= 2.1 }},
		{name: "ns/op ×1.9 passes", output: "+90.0%",
			cur: func(t *testing.T, r *benchfmt.Report) { series(t, r, "plan", 2).NsPerOp *= 1.9 }},
		{name: "ns/op of 0 fails", fails: 1, output: "FAIL no ns/op",
			cur: func(t *testing.T, r *benchfmt.Report) { series(t, r, "plan", 2).NsPerOp = 0 }},
		{name: "scale 3.1 fails", fails: 1, output: "scale (median cur/base ns/op): 3.100  FAIL",
			cur: func(t *testing.T, r *benchfmt.Report) { scaleAll(r, 3.1) }},
		{name: "scale 1/3.1 fails", fails: 1, output: "FAIL beyond 3x",
			cur: func(t *testing.T, r *benchfmt.Report) { scaleAll(r, 1/3.1) }},
		{name: "scale 2.9 passes", output: "2.900",
			cur: func(t *testing.T, r *benchfmt.Report) { scaleAll(r, 2.9) }},
		{name: "delta frames at m·12 pass", output: "72 B ≤ 72 B",
			both: func(t *testing.T, r *benchfmt.Report) { series(t, r, "notify_bytes_delta", 6).WireBytes = 6 * 12 }},
		{name: "delta frames at m·12 + 1 fail", fails: 1, output: "73 B ≤ 72 B (m · sim.DeltaNotifyBytes)  FAIL",
			both: func(t *testing.T, r *benchfmt.Report) { series(t, r, "notify_bytes_delta", 6).WireBytes = 6*12 + 1 }},
		{name: "net plan speedup below 10x fails", fails: 1, output: "FAIL 9.80x < 10.00x",
			both: func(t *testing.T, r *benchfmt.Report) { series(t, r, "net_plan", 3).NsPerOp = 50000 }},
		{name: "durable overhead above 2x fails", fails: 1, output: "FAIL 2.10x > 2.00x",
			both: func(t *testing.T, r *benchfmt.Report) { series(t, r, "durable_update", 3).NsPerOp = 16800 }},
		{name: "repl overhead above 2.5x fails", fails: 1, output: "FAIL 2.60x > 2.50x",
			both: func(t *testing.T, r *benchfmt.Report) { series(t, r, "repl_ship", 3).NsPerOp = 20800 }},
		{name: "a missing ratio pair fails", fails: 2, output: "pair missing from report  FAIL",
			both: func(t *testing.T, r *benchfmt.Report) {
				r.Series = append(r.Series[:3], r.Series[4:]...) // update_inc
			}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			base, cur := baseReport(), baseReport()
			if c.both != nil {
				c.both(t, &base)
				c.both(t, &cur)
			}
			if c.cur != nil {
				c.cur(t, &cur)
			}
			var out strings.Builder
			failures, err := gate(&out, base, cur)
			if err != nil {
				t.Fatal(err)
			}
			if failures != c.fails || !strings.Contains(out.String(), c.output) {
				t.Errorf("%d failures, want %d, and output containing %q:\n%s", failures, c.fails, c.output, out.String())
			}
		})
	}
}

// scaleAll multiplies every ns/op in r by f, as a uniformly faster or
// slower machine would.
func scaleAll(r *benchfmt.Report, f float64) {
	for i := range r.Series {
		r.Series[i].NsPerOp *= f
	}
}

// Reports from different workloads are a usage error (main exits 2),
// not a gate result.
func TestGateRefusesMismatchedParameters(t *testing.T) {
	for name, edit := range map[string]func(*benchfmt.Report){
		"gomaxprocs": func(r *benchfmt.Report) { r.GoMaxProcs = 2 },
		"pois":       func(r *benchfmt.Report) { r.POIs++ },
		"tile_limit": func(r *benchfmt.Report) { r.TileLimit++ },
		"buffer":     func(r *benchfmt.Report) { r.Buffer++ },
		"replay_ops": func(r *benchfmt.Report) { r.ReplayOps++ },
	} {
		cur := baseReport()
		edit(&cur)
		var out strings.Builder
		if _, err := gate(&out, baseReport(), cur); err == nil || !strings.Contains(err.Error(), name) {
			t.Errorf("%s differs: err=%v, want a usage error naming the parameters", name, err)
		}
	}
}
