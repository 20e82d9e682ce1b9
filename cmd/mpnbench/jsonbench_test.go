package main

import (
	"errors"
	"strings"
	"testing"

	"mpn/internal/benchfmt"
	"mpn/internal/core"
)

// mergeReports must take the median ns/op and bytes/op across rounds,
// keep the round-1 series order, recompute OpsPerSec from the median
// ns/op, and carry the exact fields through.
func TestMergeReports(t *testing.T) {
	mk := func(ns float64, bytes int64) benchfmt.Report {
		return benchfmt.Report{
			Description: "d", POIs: 10,
			Series: []benchfmt.Series{
				{Name: "plan", GroupSize: 2, NsPerOp: ns, OpsPerSec: 1e9 / ns, AllocsPerOp: 7, TileVerifies: 40},
				{Name: "churn_plan", GroupSize: 3, NsPerOp: ns * 2, BytesPerOp: bytes},
				{Name: "notify_bytes_full", GroupSize: 2, WireBytes: 500},
			},
		}
	}
	// ns/op median 200 (round 3), bytes/op median 20 (round 1): medians
	// are per field, so a single round need not win every field.
	merged, err := mergeReports([]benchfmt.Report{mk(300, 20), mk(100, 10), mk(200, 30)})
	if err != nil {
		t.Fatal(err)
	}
	if len(merged.Series) != 3 {
		t.Fatalf("series=%d", len(merged.Series))
	}
	plan := merged.Series[0]
	if plan.Name != "plan" || plan.NsPerOp != 200 || plan.AllocsPerOp != 7 || plan.TileVerifies != 40 {
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
	one, err := mergeReports([]benchfmt.Report{mk(123, 5)})
	if err != nil || one.Series[0].NsPerOp != 123 || one.Series[0].AllocsPerOp != 7 {
		t.Fatalf("single round altered: %+v, %v", one.Series[0], err)
	}
}

// Rounds that disagree on any exact field mean a nondeterministic
// fixture: the merge fails and names the field.
func TestMergeReportsRejectsInexactRounds(t *testing.T) {
	for _, c := range []struct {
		field string
		s     benchfmt.Series
	}{
		{"allocs/op", benchfmt.Series{AllocsPerOp: 57}},
		{"tile verifies", benchfmt.Series{TileVerifies: 1}},
		{"candidates checked", benchfmt.Series{CandidatesChecked: 1}},
		{"index accesses", benchfmt.Series{IndexAccesses: 1}},
		{"wire bytes", benchfmt.Series{WireBytes: 1}},
	} {
		c.s.Name, c.s.GroupSize = "net_plan_naive", 3
		steady := benchfmt.Series{Name: "net_plan_naive", GroupSize: 3}
		rounds := []benchfmt.Report{
			{Series: []benchfmt.Series{steady}},
			{Series: []benchfmt.Series{steady}},
			{Series: []benchfmt.Series{c.s}},
		}
		if _, err := mergeReports(rounds); err == nil || !strings.Contains(err.Error(), c.field) {
			t.Errorf("%s differing in round 3: err=%v, want a nondeterminism error naming it", c.field, err)
		}
	}
	other := []benchfmt.Report{
		{Series: []benchfmt.Series{{Name: "plan", GroupSize: 2}}},
		{Series: []benchfmt.Series{{Name: "plan", GroupSize: 3}}},
	}
	if _, err := mergeReports(other); err == nil {
		t.Error("rounds over different series merged")
	}
}

// A series whose op fails has no measurement: measure must fail it, on
// the first op or a later one, rather than report N = 0 as zero ns/op.
func TestMeasureFailsOnOpError(t *testing.T) {
	boom := errors.New("boom")
	for _, failAt := range []int{0, 5} {
		r := row{name: "plan", m: 2, setup: func() (fixture, error) {
			return fixture{op: func(i int) (core.Stats, error) {
				if i >= failAt {
					return core.Stats{}, boom
				}
				return core.Stats{TileVerifies: 1}, nil
			}}, nil
		}}
		if s, err := measure(r); !errors.Is(err, boom) {
			t.Errorf("op failing from op %d: series %+v, err %v; want the op's error", failAt, s, err)
		}
	}
	setupErr := row{name: "plan", m: 2, setup: func() (fixture, error) { return fixture{}, boom }}
	if _, err := measure(setupErr); !errors.Is(err, boom) {
		t.Error("a failing setup measured")
	}
}

// The replay counts exactly: replayOps ops, whatever N the timed run
// chose, with drain inside the counted window and close after it.
func TestMeasureReplaysExactly(t *testing.T) {
	var ops, drains, closes int
	var sink [][]byte
	r := row{name: "plan", m: 2, setup: func() (fixture, error) {
		ops = 0
		return fixture{
			op: func(i int) (core.Stats, error) {
				ops++
				sink = append(sink[:0], make([]byte, 64))
				return core.Stats{TileVerifies: 2, CandidatesChecked: 3, IndexAccesses: 1}, nil
			},
			drain: func() { drains++ },
			close: func() { closes++ },
		}, nil
	}}
	s, err := measure(r)
	if err != nil {
		t.Fatal(err)
	}
	if ops != replayOps || s.TileVerifies != 2*replayOps || s.CandidatesChecked != 3*replayOps || s.IndexAccesses != replayOps {
		t.Fatalf("replay ran %d ops and counted %+v; want %d ops", ops, s, replayOps)
	}
	if s.AllocsPerOp != 1 || s.NsPerOp <= 0 || drains != closes || closes < 2 {
		t.Fatalf("series %+v, %d drains, %d closes", s, drains, closes)
	}
}
