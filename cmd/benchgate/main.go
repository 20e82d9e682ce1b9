// Command benchgate is the benchmark-regression gate: it compares a
// freshly produced cmd/mpnbench -json report against the committed
// baseline (BENCH_plan.json) and exits 1 when any rule fails, 2 when the
// reports cannot be compared. There is one rule per quantity:
//
//   - The exact fields (allocs/op, the planner's tile verifies,
//     candidates checked and index accesses over the fixed replay, and
//     wire bytes) are reproduced by a sweep on any machine, so any
//     increase fails. A decrease passes with a note to re-record the
//     baseline, so the next regression is measured from the new floor.
//   - ns/op is divided by the machine-speed scale, the median cur/base
//     ratio over every timed series, and fails only beyond maxSlowdown.
//     That bound sits above the spread of clean sweeps of one tree;
//     algorithmic regressions show in the exact counts first.
//   - The scale itself fails beyond maxScale in either direction: a shift
//     that large is the code moving every series together, or a stale
//     baseline, not hardware.
//   - A timed series that reports no ns/op failed to run, and fails.
//   - A baseline series missing from the current report fails (coverage
//     must not silently shrink); a series only in the current report
//     passes until the baseline is re-recorded to gate it.
//   - In-report bounds on the current report alone: the ratio bounds of
//     ratioBounds, and the delta protocol's frames stay within what the
//     figure pipeline charges for them (deltaBound).
//
// Reports compare only at equal workload parameters (GOMAXPROCS, POI
// count, tile limit, buffer, replay length); record the baseline with
// GOMAXPROCS=1, as CI runs the sweep.
//
// Usage:
//
//	benchgate -baseline BENCH_plan.json -current bench_current.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"sort"

	"mpn/internal/benchfmt"
	"mpn/internal/sim"
	"mpn/internal/stats"
)

const (
	// maxSlowdown bounds a series' normalized ns/op over its baseline.
	// Clean sweeps of one tree spread −44 % … +80 % (+45 % at matched
	// GOMAXPROCS), so 2× fails no clean tree.
	maxSlowdown = 2.0
	// maxScale bounds the machine-speed scale, or its inverse.
	maxScale = 3.0
)

func main() {
	baselinePath := flag.String("baseline", "BENCH_plan.json", "committed baseline report")
	currentPath := flag.String("current", "", "freshly produced report to gate")
	flag.Parse()
	if *currentPath == "" {
		fmt.Fprintln(os.Stderr, "benchgate: -current is required")
		os.Exit(2)
	}
	failures, err := run(*baselinePath, *currentPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchgate:", err)
		os.Exit(2)
	}
	if failures > 0 {
		fmt.Printf("\nbenchgate: %d failure(s)\n", failures)
		os.Exit(1)
	}
	fmt.Println("\nbenchgate: every rule holds")
}

func run(baselinePath, currentPath string) (int, error) {
	base, err := load(baselinePath)
	if err != nil {
		return 0, err
	}
	cur, err := load(currentPath)
	if err != nil {
		return 0, err
	}
	return gate(os.Stdout, base, cur)
}

func load(path string) (benchfmt.Report, error) {
	var r benchfmt.Report
	data, err := os.ReadFile(path)
	if err == nil {
		err = json.Unmarshal(data, &r)
	}
	if err != nil {
		return r, fmt.Errorf("%s: %w", path, err)
	}
	return r, nil
}

type key struct {
	name string
	m    int
}

// gate checks cur against base and every in-report bound, writes one
// line per series and bound to w, and returns the number of failures. It
// returns an error, and checks nothing, when the two reports ran
// different workloads.
func gate(w io.Writer, base, cur benchfmt.Report) (int, error) {
	params := func(r benchfmt.Report) [5]int {
		return [...]int{r.GoMaxProcs, r.POIs, r.TileLimit, r.Buffer, r.ReplayOps}
	}
	if params(base) != params(cur) {
		return 0, fmt.Errorf("reports ran different workloads: [gomaxprocs pois tile_limit buffer replay_ops] %v in the baseline, %v in the current report",
			params(base), params(cur))
	}
	current := make(map[key]benchfmt.Series, len(cur.Series))
	for _, s := range cur.Series {
		current[key{s.Name, s.GroupSize}] = s
	}

	// Machine-speed scale: the median cur/base ns/op ratio.
	var ratios []float64
	for _, b := range base.Series {
		if c, ok := current[key{b.Name, b.GroupSize}]; ok && b.NsPerOp > 0 && c.NsPerOp > 0 {
			ratios = append(ratios, c.NsPerOp/b.NsPerOp)
		}
	}
	scale := 1.0
	if len(ratios) > 0 {
		scale = stats.Median(ratios)
	}
	failures := 0
	verdict := ""
	if math.Max(scale, 1/scale) > maxScale {
		verdict = fmt.Sprintf("  FAIL beyond %.0fx either way: most series moved together, which is the code or a stale baseline", maxScale)
		failures++
	}
	fmt.Fprintf(w, "machine-speed scale (median cur/base ns/op): %.3f%s\n", scale, verdict)

	fmt.Fprintf(w, "%-20s %2s %12s %12s %8s\n", "series", "m", "base ns/op", "cur ns/op", "norm")
	for _, b := range sortedSeries(base.Series) {
		c, ok := current[key{b.Name, b.GroupSize}]
		if !ok {
			fmt.Fprintf(w, "%-20s %2d  FAIL missing from the current report\n", b.Name, b.GroupSize)
			failures++
			continue
		}
		line := fmt.Sprintf("%-20s %2d", b.Name, b.GroupSize)
		if b.NsPerOp > 0 {
			norm := c.NsPerOp / b.NsPerOp / scale
			line += fmt.Sprintf(" %12.0f %12.0f %+7.1f%%", b.NsPerOp, c.NsPerOp, 100*(norm-1))
			switch {
			case c.NsPerOp <= 0:
				line += "  FAIL no ns/op: the series did not run"
				failures++
			case norm > maxSlowdown:
				line += fmt.Sprintf("  FAIL ns/op beyond %.0fx the baseline", maxSlowdown)
				failures++
			}
		}
		was, now := b.Exact(), c.Exact()
		for f := range was {
			switch {
			case now[f] > was[f]:
				line += fmt.Sprintf("  FAIL %s %d→%d", benchfmt.ExactFields[f], was[f], now[f])
				failures++
			case now[f] < was[f]:
				line += fmt.Sprintf("  %s %d→%d improved, re-record the baseline", benchfmt.ExactFields[f], was[f], now[f])
			}
		}
		fmt.Fprintln(w, line)
	}
	baseline := make(map[key]bool, len(base.Series))
	for _, b := range base.Series {
		baseline[key{b.Name, b.GroupSize}] = true
	}
	for _, c := range sortedSeries(cur.Series) {
		if !baseline[key{c.Name, c.GroupSize}] {
			fmt.Fprintf(w, "%-20s %2d  new series, not gated until the baseline is re-recorded\n", c.Name, c.GroupSize)
		}
	}
	return failures + inReport(w, current, cur.Series), nil
}

// ratioBound is one machine-independent in-report bound: at group size m,
// series num's ns/op divided by series den's must be at least min (when
// min > 0) and at most max (when max > 0). Both series come from the same
// report — the same process on the same machine — so the ratio measures
// the code, not the hardware. A missing pair fails: a bounded series must
// not silently drop out of the report.
type ratioBound struct {
	what     string
	num, den string
	m        int
	min, max float64
}

var ratioBounds = []ratioBound{
	// The table-driven network backend over the per-member full-SSSP
	// oracle, on groups whose members start at independent junctions.
	// Losing it means a per-plan shortest-path search crept back into the
	// top-2 scan.
	{what: "net plan speedup", num: "net_plan_naive", den: "net_plan", m: 3, min: 10},
	// WAL journaling on the steady-state update path: durable_update is
	// update_inc's workload with the group-state journal attached at
	// fsync=interval. The hook only encodes and enqueues, so the ceiling
	// is coarse on purpose: shared runners add writer-goroutine noise, and
	// what it catches — an fsync or compaction moved onto the update's
	// critical path — is a 10×+ effect.
	{what: "durable update overhead", num: "durable_update", den: "update_inc", m: 3, max: 2.0},
	// Hot-standby replication on that same path: repl_ship adds a live
	// follower tailing the record stream over loopback. Shipping runs on
	// its own goroutine, so the ceiling sits half a turn above the durable
	// one; it catches a synchronous write or an ack wait.
	{what: "repl ship overhead", num: "repl_ship", den: "update_inc", m: 3, max: 2.5},
}

// deltaBound is the most a delta notification frame may take on the
// wire: what the figure pipeline charges for it, so the paper's
// communication figures never undercount what the coordinator ships.
const deltaBound = sim.DeltaNotifyBytes

// inReport checks the current report's own bounds — every ratioBound,
// and notify_bytes_delta ≤ m·deltaBound at every m — and returns the
// number of failures.
func inReport(w io.Writer, current map[key]benchfmt.Series, series []benchfmt.Series) int {
	failures := 0
	for _, b := range ratioBounds {
		num, okN := current[key{b.num, b.m}]
		den, okD := current[key{b.den, b.m}]
		if !okN || !okD || den.NsPerOp <= 0 {
			fmt.Fprintf(w, "%s m=%d: %s / %s pair missing from report  FAIL\n", b.what, b.m, b.num, b.den)
			failures++
			continue
		}
		ratio := num.NsPerOp / den.NsPerOp
		status := ""
		if b.min > 0 && ratio < b.min {
			status = fmt.Sprintf("  FAIL %.2fx < %.2fx", ratio, b.min)
		}
		if b.max > 0 && ratio > b.max {
			status = fmt.Sprintf("  FAIL %.2fx > %.2fx", ratio, b.max)
		}
		if status != "" {
			failures++
		}
		fmt.Fprintf(w, "%s m=%d: %s %.0f ns/op / %s %.0f ns/op = %.2fx%s\n",
			b.what, b.m, b.num, num.NsPerOp, b.den, den.NsPerOp, ratio, status)
	}
	for _, s := range series {
		if s.Name != "notify_bytes_delta" {
			continue
		}
		limit := int64(s.GroupSize) * deltaBound
		status := ""
		if s.WireBytes > limit {
			status = "  FAIL"
			failures++
		}
		fmt.Fprintf(w, "delta frames m=%d: %d B ≤ %d B (m · sim.DeltaNotifyBytes)%s\n", s.GroupSize, s.WireBytes, limit, status)
	}
	return failures
}

// sortedSeries returns a copy of series in a stable name-then-size order.
func sortedSeries(series []benchfmt.Series) []benchfmt.Series {
	out := append([]benchfmt.Series(nil), series...)
	sort.Slice(out, func(i, j int) bool {
		if out[i].Name != out[j].Name {
			return out[i].Name < out[j].Name
		}
		return out[i].GroupSize < out[j].GroupSize
	})
	return out
}
