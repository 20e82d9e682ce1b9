package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"

	"mpn/internal/stats"
)

// manifest is the part of BENCHMARK.json the benchmark reads back: the
// declared metrics, and for the end-to-end ones the regression bounds.
type manifest struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
	} `json:"per_layer"`
}

func readManifest(root string) (*manifest, error) {
	data, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	var m manifest
	if err := json.Unmarshal(data, &m); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return &m, nil
}

// runAA runs n alternating sets A B A B … of the same build — set i of
// either side uses seed+i — and prints, per workload and end-to-end
// metric, both sides' medians and quartile spreads (the spread the
// acceptance check computes: (Q3−Q1)/median), how much worse B's median
// is than A's, and the bound both must stay within.
func (b *bench) runAA(chosen []spec, n int, seed int64, seconds float64) error {
	man, err := readManifest(b.root)
	if err != nil {
		return err
	}
	b.quiet = true
	type key struct{ workload, metric string }
	vals := map[key]*[2][]float64{}
	for i := 0; i < n; i++ {
		for side := 0; side < 2; side++ {
			for _, sp := range chosen {
				res, err := b.runEndToEnd(sp, seed+int64(i), seconds)
				if err != nil {
					return fmt.Errorf("%s: %w", sp.name, err)
				}
				if !res.Correct {
					return fmt.Errorf("%s: incorrect run (%d of %d ops failed)", sp.name, res.Failed, res.Attempted)
				}
				for name, v := range res.Metrics {
					k := key{sp.name, name}
					if vals[k] == nil {
						vals[k] = new([2][]float64)
					}
					vals[k][side] = append(vals[k][side], v.Value)
				}
				fmt.Fprintf(os.Stderr, "set %d%c %s done\n", i+1, 'A'+side, sp.name)
			}
		}
	}

	fmt.Printf("| workload | metric | A median | A spread | B median | B spread | B worse by | bound | within |\n")
	fmt.Printf("|---|---|---|---|---|---|---|---|---|\n")
	allWithin := true
	for _, sp := range chosen {
		for _, d := range man.EndToEnd {
			v := vals[key{sp.name, d.Name}]
			if v == nil {
				return fmt.Errorf("BENCHMARK.json names %s, which the benchmark does not report", d.Name)
			}
			var med, spread [2]float64
			for side := range v {
				med[side] = stats.Median(v[side])
				q1, q3 := quartiles(v[side])
				spread[side] = (q3 - q1) / med[side]
			}
			worse := (med[1] - med[0]) / med[0]
			if d.Better == "higher" {
				worse = -worse
			}
			within := worse <= d.Bound && (d.Name == "setup_s" || (spread[0] <= d.Bound && spread[1] <= d.Bound))
			allWithin = allWithin && within
			fmt.Printf("| %s | %s (%s) | %.4f | %.1f %% | %.4f | %.1f %% | %+.1f %% | %.0f %% | %v |\n",
				sp.name, d.Name, d.Unit, med[0], 100*spread[0], med[1], 100*spread[1], 100*worse, 100*d.Bound, within)
		}
	}
	if !allWithin {
		return fmt.Errorf("the two sets disagree beyond a bound")
	}
	return nil
}
