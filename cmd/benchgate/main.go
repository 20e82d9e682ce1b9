// Command benchgate is the benchmark-regression gate: it compares a
// freshly produced cmd/mpnbench -json report against the committed
// baseline (BENCH_plan.json) and exits non-zero when any series
// regresses beyond tolerance — more than -tol relative ns/op increase
// (default 0.25), or any allocs/op increase at all (allocation counts
// are deterministic, so even +1 is a real regression; the churn_* and
// net_* series alone get a slack of 2, see allocSlack). It also enforces
// five machine-independent in-report bounds on the current report: the delta
// notification protocol's wire-byte reduction (enforceDeltaReduction),
// the shared cache's hit rate under localized POI churn
// (enforceChurnHitRate), the road-network backend's speedup over the
// per-member full-SSSP oracle (enforceNetSpeedup), the WAL journal's
// overhead ceiling on the steady-state update path
// (enforceDurableOverhead), and the hot-standby replication overhead
// ceiling on that same path (enforceReplOverhead).
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
	failures += enforceDeltaReduction(current)
	failures += enforceChurnHitRate(current)
	failures += enforceNetSpeedup(current)
	failures += enforceDurableOverhead(current)
	failures += enforceReplOverhead(current)
	if failures > 0 {
		fmt.Printf("\nbenchgate: %d regression(s) beyond tolerance\n", failures)
		os.Exit(1)
	}
	fmt.Println("\nbenchgate: all series within tolerance")
}

// wireBytesTol is the slack on deterministic wire-byte series (region
// shapes shift slightly when the planner workload is perturbed).
const wireBytesTol = 0.10

// minDeltaReduction is the enforced steady-state win of the delta
// notification protocol at the largest benchmarked group size: the
// full-protocol bytes per kept-path notification round must be at least
// this many times the delta protocol's.
const (
	minDeltaReduction  = 10.0
	deltaReductionAtM  = 6
	notifyBytesFullSer = "notify_bytes_full"
	notifyBytesDeltaSr = "notify_bytes_delta"
)

// enforceDeltaReduction checks the current report's notify_bytes series
// pair: at m=6 the delta protocol must keep its ≥10× reduction. Returns
// the number of failures.
func enforceDeltaReduction(current map[key]benchfmt.Series) int {
	failures := 0
	for m := 2; m <= deltaReductionAtM; m++ {
		full, okF := current[key{notifyBytesFullSer, m}]
		delta, okD := current[key{notifyBytesDeltaSr, m}]
		if !okF || !okD || delta.WireBytes <= 0 {
			continue
		}
		ratio := full.WireBytes / delta.WireBytes
		status := ""
		if m == deltaReductionAtM && ratio < minDeltaReduction {
			status = fmt.Sprintf("  FAIL reduction %.1fx < %.0fx", ratio, minDeltaReduction)
			failures++
		}
		fmt.Printf("notify delta reduction m=%d: %.0f B → %.0f B (%.1fx)%s\n",
			m, full.WireBytes, delta.WireBytes, ratio, status)
	}
	return failures
}

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

// minChurnHitRate is the enforced shared-cache hit-rate floor of the
// churn_plan_cached series: under localized POI churn the dirty-tile
// invalidation must keep distant cache entries alive, so the planning
// group far from the mutations keeps hitting. A wholesale
// version-mismatch invalidation drives this to ~12% (one miss per
// mutation batch, churnEvery-1 hits between batches at best — in
// practice every lookup misses because the version never stops moving);
// locality-aware migration keeps it near 100%.
const (
	minChurnHitRate   = 0.80
	churnCachedSeries = "churn_plan_cached"
)

// enforceChurnHitRate checks the current report's churn_plan_cached
// cache counters against the hit-rate floor. Returns the number of
// failures.
func enforceChurnHitRate(current map[key]benchfmt.Series) int {
	failures := 0
	for _, s := range sortedSeries(current) {
		if s.Name != churnCachedSeries {
			continue
		}
		total := s.CacheHits + s.CacheMisses + s.CacheRejected
		if total == 0 {
			fmt.Printf("churn cache hit rate m=%d: no lookups recorded  FAIL (counters missing from report)\n", s.GroupSize)
			failures++
			continue
		}
		rate := float64(s.CacheHits) / float64(total)
		status := ""
		if rate < minChurnHitRate {
			status = fmt.Sprintf("  FAIL hit rate %.1f%% < %.0f%%", 100*rate, 100*minChurnHitRate)
			failures++
		}
		fmt.Printf("churn cache hit rate m=%d: %.1f%% (%d hit / %d miss / %d rejected)%s\n",
			s.GroupSize, 100*rate, s.CacheHits, s.CacheMisses, s.CacheRejected, status)
	}
	return failures
}

// minNetSpeedup is the enforced win of the table-driven network backend
// (exact POI distances read from a table built once) over the per-member
// full-SSSP oracle at the default network size, on groups whose members
// start at independent junctions. Both series run in the same process on
// the same machine, so the ratio is machine-independent; losing it means
// a per-plan shortest-path search crept back into the top-2 scan.
const (
	minNetSpeedup  = 10.0
	netPlanSeries  = "net_plan"
	netNaiveSeries = "net_plan_naive"
)

// enforceNetSpeedup checks the current report's net_plan series against
// the naive-oracle floor. Returns the number of failures.
func enforceNetSpeedup(current map[key]benchfmt.Series) int {
	failures := 0
	for _, s := range sortedSeries(current) {
		if s.Name != netPlanSeries {
			continue
		}
		naive, ok := current[key{netNaiveSeries, s.GroupSize}]
		if !ok || s.NsPerOp <= 0 {
			fmt.Printf("net plan speedup m=%d: naive baseline missing  FAIL\n", s.GroupSize)
			failures++
			continue
		}
		ratio := naive.NsPerOp / s.NsPerOp
		status := ""
		if ratio < minNetSpeedup {
			status = fmt.Sprintf("  FAIL speedup %.1fx < %.0fx", ratio, minNetSpeedup)
			failures++
		}
		fmt.Printf("net plan speedup m=%d: %.0f ns/op → %.0f ns/op (%.1fx)%s\n",
			s.GroupSize, naive.NsPerOp, s.NsPerOp, ratio, status)
	}
	return failures
}

// maxDurableOverhead is the enforced ceiling on what WAL journaling may
// cost the steady-state update path: durable_update (update_inc's exact
// workload with the group-state journal attached at fsync=interval) may
// take at most this many times update_inc's ns/op. The hook only
// encodes and enqueues — file I/O runs on the store's writer goroutine —
// so the true per-update cost is a record encode plus a channel send
// (~hundreds of ns on a multi-µs update). The ceiling is deliberately
// coarse: on shared CI runners the writer goroutine's background I/O
// adds scheduler noise well above the hook's own cost, and what the
// fence exists to catch — an fsync or compaction accidentally moved
// onto the update's critical path — is a 10×+ effect, not a 2× one.
const (
	maxDurableOverhead  = 2.0
	durableUpdateSeries = "durable_update"
	updateIncSeries     = "update_inc"
)

// enforceDurableOverhead checks the current report's durable_update
// series against the update_inc baseline at the same group size. Both
// run in the same process on the same machine, so the ratio is
// machine-independent. A missing pair fails — the durability series must
// not silently drop out of the report. Returns the number of failures.
func enforceDurableOverhead(current map[key]benchfmt.Series) int {
	failures := 0
	seen := false
	for _, s := range sortedSeries(current) {
		if s.Name != durableUpdateSeries {
			continue
		}
		seen = true
		inc, ok := current[key{updateIncSeries, s.GroupSize}]
		if !ok || inc.NsPerOp <= 0 {
			fmt.Printf("durable overhead m=%d: update_inc baseline missing  FAIL\n", s.GroupSize)
			failures++
			continue
		}
		ratio := s.NsPerOp / inc.NsPerOp
		status := ""
		if ratio > maxDurableOverhead {
			status = fmt.Sprintf("  FAIL overhead %.2fx > %.2fx", ratio, maxDurableOverhead)
			failures++
		}
		fmt.Printf("durable update overhead m=%d: %.0f ns/op → %.0f ns/op (%.2fx, ceiling %.2fx)%s\n",
			s.GroupSize, inc.NsPerOp, s.NsPerOp, ratio, maxDurableOverhead, status)
	}
	if !seen {
		fmt.Printf("durable overhead: durable_update series missing from report  FAIL\n")
		failures++
	}
	return failures
}

// maxReplOverhead is the enforced ceiling on what hot-standby
// replication may cost the steady-state update path: repl_ship
// (update_inc's exact workload with the WAL journal attached AND a live
// follower tailing the record stream over loopback, lag-bounded) may
// take at most this many times update_inc's ns/op. Shipping rides the
// store's existing stream fan-out — the update path pays the same
// encode-and-enqueue the durable fence already prices, and the shipper
// writes frames on its own goroutine — so the honest cost is the
// durable overhead plus stream-forward contention, not a wire round
// trip. The ceiling sits above maxDurableOverhead by half a turn: what
// it exists to catch is shipping leaking onto the update's critical
// path (a synchronous write or an ack wait), which is a 10×+ effect.
const (
	maxReplOverhead = 2.5
	replShipSeries  = "repl_ship"
	replLagSeries   = "repl_lag"
)

// enforceReplOverhead checks the current report's repl_ship series
// against the update_inc baseline at the same group size, same-process
// same-machine so the ratio is machine-independent. A missing repl
// series pair fails — replication coverage must not silently drop out
// of the report. Returns the number of failures.
func enforceReplOverhead(current map[key]benchfmt.Series) int {
	failures := 0
	seen := false
	for _, s := range sortedSeries(current) {
		if s.Name != replShipSeries {
			continue
		}
		seen = true
		inc, ok := current[key{updateIncSeries, s.GroupSize}]
		if !ok || inc.NsPerOp <= 0 {
			fmt.Printf("repl ship overhead m=%d: update_inc baseline missing  FAIL\n", s.GroupSize)
			failures++
			continue
		}
		ratio := s.NsPerOp / inc.NsPerOp
		status := ""
		if ratio > maxReplOverhead {
			status = fmt.Sprintf("  FAIL overhead %.2fx > %.2fx", ratio, maxReplOverhead)
			failures++
		}
		fmt.Printf("repl ship overhead m=%d: %.0f ns/op → %.0f ns/op (%.2fx, ceiling %.2fx)%s\n",
			s.GroupSize, inc.NsPerOp, s.NsPerOp, ratio, maxReplOverhead, status)
		if _, ok := current[key{replLagSeries, s.GroupSize}]; !ok {
			fmt.Printf("repl lag m=%d: repl_lag series missing from report  FAIL\n", s.GroupSize)
			failures++
		}
	}
	if !seen {
		fmt.Printf("repl ship overhead: repl_ship series missing from report  FAIL\n")
		failures++
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
