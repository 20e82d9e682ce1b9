package main

import (
	"sort"
	"testing"
)

// TestSmoke runs every workload at toy size — 2 groups, 5 timed ops each,
// three untraced passes and one traced pair — and asserts what must hold
// at any size: the twin pass repeats the first pass's counts (runEndToEnd
// and runTraced fail otherwise), no op fails, and the metric and workload
// names printed equal those BENCHMARK.json declares. No timing is
// asserted.
func TestSmoke(t *testing.T) {
	root, err := repoRoot()
	if err != nil {
		t.Fatal(err)
	}
	bin, err := buildServer(root)
	if err != nil {
		t.Fatal(err)
	}
	man, err := readManifest(root)
	if err != nil {
		t.Fatal(err)
	}
	var wantE2E, wantLayer, wantWorkloads, gotWorkloads []string
	for _, d := range man.EndToEnd {
		wantE2E = append(wantE2E, d.Name)
	}
	for _, d := range man.PerLayer {
		wantLayer = append(wantLayer, d.Name)
	}
	for _, w := range man.Workloads {
		wantWorkloads = append(wantWorkloads, w.Name)
	}
	for _, sp := range specs {
		gotWorkloads = append(gotWorkloads, sp.name)
	}
	sameNames(t, "workloads", gotWorkloads, wantWorkloads)

	b := &bench{root: root, bin: bin, passes: minPasses, quiet: true, overrides: func(sp *spec) {
		sp.groups, sp.warm, sp.timed = 2, 1, 5
		if sp.timedSessions > 0 {
			sp.timed, sp.warmSessions, sp.timedSessions = 0, 1, 2
		}
	}}
	for _, sp := range specs {
		t.Run(sp.name, func(t *testing.T) {
			res, err := b.runEndToEnd(sp, 1, 0)
			if err != nil {
				t.Fatal(err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Fatalf("end to end: correct=%v attempted=%d failed=%d", res.Correct, res.Attempted, res.Failed)
			}
			sameNames(t, "end_to_end", keys(res.Metrics), wantE2E)

			tr, err := b.runTraced(sp, 1)
			if err != nil {
				t.Fatal(err)
			}
			if !tr.Correct || tr.Failed != 0 {
				t.Fatalf("traced: correct=%v attempted=%d failed=%d", tr.Correct, tr.Attempted, tr.Failed)
			}
			sameNames(t, "per_layer", keys(tr.Metrics), wantLayer)
		})
	}
}

func keys(m map[string]value) []string {
	var out []string
	for k := range m {
		out = append(out, k)
	}
	return out
}

func sameNames(t *testing.T, what string, got, want []string) {
	t.Helper()
	got, want = append([]string(nil), got...), append([]string(nil), want...)
	sort.Strings(got)
	sort.Strings(want)
	if len(got) != len(want) {
		t.Fatalf("%s: the benchmark reports %d names, BENCHMARK.json declares %d\n got %v\nwant %v", what, len(got), len(want), got, want)
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("%s: the benchmark reports %q where BENCHMARK.json declares %q", what, got[i], want[i])
		}
	}
}
