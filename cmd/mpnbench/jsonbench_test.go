package main

import (
	"testing"

	"mpn/internal/benchfmt"
)

// mergeReports must take the per-field median across rounds, keep the
// round-1 series order, and recompute OpsPerSec from the median ns/op.
func TestMergeReports(t *testing.T) {
	mk := func(ns float64, allocs, bytes int64) benchfmt.Report {
		return benchfmt.Report{
			Description: "d", POIs: 10,
			Series: []benchfmt.Series{
				{Name: "plan", GroupSize: 2, NsPerOp: ns, OpsPerSec: 1e9 / ns, AllocsPerOp: allocs},
				{Name: "churn_plan", GroupSize: 3, NsPerOp: ns * 2, BytesPerOp: bytes},
				{Name: "notify_bytes_full", GroupSize: 2, WireBytes: 500},
			},
		}
	}
	// ns medians: plan=100 (from round 2), allocs median=7 (round 3),
	// bytes median=20 (round 1) — medians are per field, so a single round
	// need not win every field.
	merged := mergeReports([]benchfmt.Report{
		mk(300, 5, 20), mk(100, 9, 10), mk(200, 7, 30),
	})
	if len(merged.Series) != 3 {
		t.Fatalf("series=%d", len(merged.Series))
	}
	plan := merged.Series[0]
	if plan.Name != "plan" || plan.NsPerOp != 200 || plan.AllocsPerOp != 7 {
		t.Fatalf("plan merged wrong: %+v", plan)
	}
	if got, want := plan.OpsPerSec, 1e9/200.0; got != want {
		t.Fatalf("OpsPerSec=%v want %v", got, want)
	}
	churn := merged.Series[1]
	if churn.NsPerOp != 400 || churn.BytesPerOp != 20 {
		t.Fatalf("churn merged wrong: %+v", churn)
	}
	if merged.Series[2].WireBytes != 500 {
		t.Fatalf("wire bytes lost: %+v", merged.Series[2])
	}

	// A single round passes through untouched.
	one := mergeReports([]benchfmt.Report{mk(123, 4, 5)})
	if one.Series[0].NsPerOp != 123 || one.Series[0].AllocsPerOp != 4 {
		t.Fatalf("single round altered: %+v", one.Series[0])
	}
}
