// Command benchgate is the benchmark-regression gate: it compares a
// freshly produced cmd/mpnbench -json report against the committed
// baseline (BENCH_plan.json) and exits non-zero when any series
// regresses beyond tolerance — more than -tol relative ns/op increase
// (default 0.25), or any allocs/op increase at all (allocation counts
// are deterministic, so even +1 is a real regression; the churn_* and
// net_* series alone get a slack of 2, see allocSlack). It also enforces
// machine-independent in-report bounds on the current report: the ratio
// floors and ceilings of ratioBounds (the delta notification protocol's
// wire-byte reduction, the road-network backend's speedup over the
// per-member full-SSSP oracle, and the WAL journal's and hot-standby
// replication's overhead on the steady-state update path).
//
// The baseline is typically produced on a different machine than the
// gate run (a developer box vs a CI runner), so raw ns/op ratios mostly
// measure hardware. With -normalize (the default) every per-series ratio
// is divided by the median of all ratios first: a uniformly slower
// machine scales every series alike and normalizes away, while a
// regression in one code path sticks out against the others. The median
// (rather than a mean) keeps a large genuine improvement or regression
// in a minority of series from dragging the scale and flagging the
// untouched majority. The remaining blind spot is a uniform shift in
// code shared by every series, which normalization would also cancel —
// so the scale itself is bounded, symmetrically: deviating from 1 by
// more than -warn-scale in either direction prints a loud warning, more
// than -max-scale fails (hardware accounts for a few ×; more than that
// is the code, or a baseline overdue for a refresh). Disable
// normalization (-normalize=false) when baseline and current come from
// the same machine. The allocs/op half of the gate is
// machine-independent and always exact.
//
// Usage:
//
//	benchgate -baseline BENCH_plan.json -current bench_current.json [-tol 0.25]
//
// Series are matched by (name, group_size). A series present in the
// baseline but missing from the current report fails the gate (coverage
// must not silently shrink); a series only in the current report is
// reported but passes (it has no baseline yet — refresh the baseline to
// start gating it).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"sort"
	"strings"

	"mpn/internal/benchfmt"
)

type key struct {
	name string
	m    int
}

func load(path string) (map[key]benchfmt.Series, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r benchfmt.Report
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	out := make(map[key]benchfmt.Series, len(r.Series))
	for _, s := range r.Series {
		out[key{s.Name, s.GroupSize}] = s
	}
	return out, nil
}

func main() {
	baselinePath := flag.String("baseline", "BENCH_plan.json", "committed baseline report")
	currentPath := flag.String("current", "", "freshly produced report to gate")
	tol := flag.Float64("tol", 0.25, "maximum tolerated relative ns/op regression")
	normalize := flag.Bool("normalize", true, "divide ns/op ratios by their median to cancel uniform machine-speed differences")
	warnScale := flag.Float64("warn-scale", 1.5, "warn when the machine-speed scale (or its inverse) exceeds this — a uniform shift could be hiding in the normalization")
	maxScale := flag.Float64("max-scale", 3.0, "fail when the machine-speed scale (or its inverse) exceeds this — a uniform shift that large is the code or a stale baseline, not hardware")
	flag.Parse()
	if *currentPath == "" {
		fmt.Fprintln(os.Stderr, "benchgate: -current is required")
		os.Exit(2)
	}

	baseline, err := load(*baselinePath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchgate:", err)
		os.Exit(2)
	}
	current, err := load(*currentPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchgate:", err)
		os.Exit(2)
	}

	// Machine-speed scale: the median of cur/base ns ratios over the
	// series present in both reports. 1.0 when not normalizing.
	scale := 1.0
	if *normalize {
		var ratios []float64
		for k, base := range baseline {
			if cur, ok := current[k]; ok && base.NsPerOp > 0 && cur.NsPerOp > 0 {
				ratios = append(ratios, cur.NsPerOp/base.NsPerOp)
			}
		}
		if len(ratios) > 0 {
			sort.Float64s(ratios)
			mid := len(ratios) / 2
			if len(ratios)%2 == 1 {
				scale = ratios[mid]
			} else {
				scale = (ratios[mid-1] + ratios[mid]) / 2
			}
		}
		fmt.Printf("machine-speed scale (median cur/base): %.3f — deltas below are relative to it\n", scale)
	}

	failures := 0
	if dev := math.Max(scale, 1/scale); dev > *maxScale {
		fmt.Printf("FAIL: scale %.2f deviates from 1 beyond -max-scale %.2f — most series shifted together; that is the code (or a stale baseline), not the runner\n",
			scale, *maxScale)
		failures++
	} else if dev > *warnScale {
		fmt.Printf("WARNING: scale %.2f deviates from 1 beyond -warn-scale %.2f — a uniform shift could be hiding in the normalization; compare on matching hardware or refresh the baseline\n",
			scale, *warnScale)
	}
	fmt.Printf("%-22s %3s  %14s %14s %8s  %s\n",
		"series", "m", "base ns/op", "cur ns/op", "delta", "allocs base→cur")
	for _, base := range sortedSeries(baseline) {
		k := key{base.Name, base.GroupSize}
		cur, ok := current[k]
		if !ok {
			fmt.Printf("%-22s %3d  MISSING from current report\n", base.Name, base.GroupSize)
			failures++
			continue
		}
		if base.WireBytes > 0 {
			// Wire-byte series are deterministic and machine-independent:
			// no normalization, and only a small slack for frame-size
			// drift from workload perturbations.
			growth := cur.WireBytes/base.WireBytes - 1
			verdict := ""
			if growth > wireBytesTol {
				verdict = fmt.Sprintf("  FAIL wire bytes +%.0f%% > %.0f%%", 100*growth, 100*wireBytesTol)
				failures++
			}
			fmt.Printf("%-22s %3d  %11.0f B  %11.0f B %+7.1f%%%s\n",
				base.Name, base.GroupSize, base.WireBytes, cur.WireBytes, 100*growth, verdict)
			continue
		}
		delta := 0.0
		if base.NsPerOp > 0 {
			delta = cur.NsPerOp/base.NsPerOp/scale - 1
		}
		verdict := ""
		if delta > *tol {
			verdict = fmt.Sprintf("  FAIL ns/op +%.0f%% > %.0f%%", 100*delta, 100**tol)
			failures++
		}
		if cur.AllocsPerOp > base.AllocsPerOp+allocSlack(base.Name) {
			verdict += fmt.Sprintf("  FAIL allocs/op %d→%d", base.AllocsPerOp, cur.AllocsPerOp)
			failures++
		}
		fmt.Printf("%-22s %3d  %14.0f %14.0f %+7.1f%%  %d→%d%s\n",
			base.Name, base.GroupSize, base.NsPerOp, cur.NsPerOp, 100*delta,
			base.AllocsPerOp, cur.AllocsPerOp, verdict)
	}
	for _, cur := range sortedSeries(current) {
		if _, ok := baseline[key{cur.Name, cur.GroupSize}]; !ok {
			fmt.Printf("%-22s %3d  new series (no baseline; refresh BENCH_plan.json to gate it)\n",
				cur.Name, cur.GroupSize)
		}
	}
	failures += enforceRatios(current)
	if failures > 0 {
		fmt.Printf("\nbenchgate: %d regression(s) beyond tolerance\n", failures)
		os.Exit(1)
	}
	fmt.Println("\nbenchgate: all series within tolerance")
}

// wireBytesTol is the slack on deterministic wire-byte series (region
// shapes shift slightly when the planner workload is perturbed).
const wireBytesTol = 0.10

// allocSlack returns the allocs/op headroom a series gets on top of its
// baseline. The churn_* series interleave mutation batches with the
// measured iterations, so their allocs/op is an amortized average whose
// integer rounding can wobble with the harness-chosen iteration count —
// a slack of 2 absorbs the rounding without hiding a real per-op leak
// (one new allocation on the plan path shows up 8×, not 1×). The net_*
// series average over a stream of moving groups whose region sizes (and
// so allocation counts) differ, and the harness-chosen iteration count
// decides how much of the stream is averaged: the same slack. Every
// other series is exactly repeatable and gets none.
func allocSlack(name string) int64 {
	if strings.HasPrefix(name, "churn_") || strings.HasPrefix(name, "net_") {
		return 2
	}
	return 0
}

// ratioBound is one machine-independent in-report bound: at group size m,
// series num's field divided by series den's must be at least min (when
// min > 0) and at most max (when max > 0). Both series come from the same
// report — the same process on the same machine — so the ratio measures
// the code, not the hardware. A missing pair fails: a bounded series must
// not silently drop out of the report.
type ratioBound struct {
	what     string
	num, den string
	wire     bool // compare WireBytes; otherwise NsPerOp
	m        int
	min, max float64
}

var ratioBounds = []ratioBound{
	// The delta notification protocol's steady-state win at the largest
	// benchmarked group: full-protocol bytes per kept-path notification
	// round over the delta protocol's.
	{what: "notify delta reduction", num: "notify_bytes_full", den: "notify_bytes_delta", wire: true, m: 6, min: 10},
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

// enforceRatios checks every ratioBound against the current report and
// returns the number of failures.
func enforceRatios(current map[key]benchfmt.Series) int {
	failures := 0
	for _, b := range ratioBounds {
		num, okN := current[key{b.num, b.m}]
		den, okD := current[key{b.den, b.m}]
		n, d, unit := num.NsPerOp, den.NsPerOp, "ns/op"
		if b.wire {
			n, d, unit = num.WireBytes, den.WireBytes, "B"
		}
		if !okN || !okD || d <= 0 {
			fmt.Printf("%s m=%d: %s / %s pair missing from report  FAIL\n", b.what, b.m, b.num, b.den)
			failures++
			continue
		}
		ratio := n / d
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
		fmt.Printf("%s m=%d: %s %.0f %s / %s %.0f %s = %.2fx%s\n",
			b.what, b.m, b.num, n, unit, b.den, d, unit, ratio, status)
	}
	return failures
}

// sortedSeries returns the map's series in a stable name-then-size order.
func sortedSeries(m map[key]benchfmt.Series) []benchfmt.Series {
	out := make([]benchfmt.Series, 0, len(m))
	for _, s := range m {
		out = append(out, s)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Name != out[j].Name {
			return out[i].Name < out[j].Name
		}
		return out[i].GroupSize < out[j].GroupSize
	})
	return out
}
