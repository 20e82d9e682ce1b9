// Command mpnbench regenerates the figures of the paper's evaluation
// (Section 7) as text tables: update frequency, communication cost
// (packets), and server CPU time for Circle, Tile, Tile-D and the buffered
// Tile-D-b across group size, data size, user speed, and buffer sweeps —
// for both the MPN and Sum-MPN objectives.
//
// Usage:
//
//	mpnbench [-scale quick|full|bench] [-fig all|13|14|15|16|17|18|19] [-o FILE]
//	mpnbench -json [-rounds N] [-o FILE]      plan/update series → BENCH_plan.json
//
// The -json mode micro-benchmarks steady-state safe-region planning (the
// workspace-reusing tile planning kernel and the engine's synchronous
// update path) across group sizes and writes the ns/op, throughput, and
// allocs/op series as JSON — the repo's benchmark baseline format. The
// sweep runs -rounds times end to end (interleaved, so a load spike
// perturbs at most one measurement per series) and each series reports
// the per-field median across rounds.
//
// The quick scale (default) keeps the POI cardinality and every algorithm
// parameter at the paper's values but shortens trajectories so the whole
// suite completes in minutes on one core; -scale full reproduces the
// paper's 60×10,000-timestamp workloads.
package main

import (
	"bytes"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"strings"
	"time"

	"mpn/internal/experiments"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("mpnbench: ")

	scaleName := flag.String("scale", "quick", "workload scale: quick, full, or bench")
	figArg := flag.String("fig", "all", "figure to regenerate: all or one of 13,14,15,16,17,18,19")
	outPath := flag.String("o", "", "write tables to this file instead of stdout")
	steps := flag.Int("steps", 0, "override trajectory length (0 = scale default)")
	groups := flag.Int("groups", 0, "override group count averaged over (0 = scale default)")
	incremental := flag.Bool("incremental", true, "replay figures under the paper's incremental maintenance protocol (false = historical full-replan accounting)")
	deltaWire := flag.Bool("delta", true, "account notification bytes/packets under the delta wire protocol (unchanged regions ship a tiny delta frame; requires -incremental)")
	jsonMode := flag.Bool("json", false, "write the plan/update benchmark series as JSON (default BENCH_plan.json; -o overrides)")
	jsonRounds := flag.Int("rounds", 3, "-json: interleaved sweep repetitions merged by per-series median (1 = historical single-shot)")
	flag.Parse()

	if *jsonMode {
		path := *outPath
		if path == "" {
			path = "BENCH_plan.json"
		}
		fmt.Printf("plan/update benchmark series → %s\n", path)
		// Buffer the whole report and write the file only after the sweep
		// succeeds, so a failed or interrupted run never truncates an
		// existing baseline.
		var buf bytes.Buffer
		if err := runPlanJSONBench(&buf, os.Stdout, *jsonRounds); err != nil {
			log.Fatal(err)
		}
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			log.Fatal(err)
		}
		return
	}

	var scale experiments.Scale
	switch *scaleName {
	case "quick":
		scale = experiments.Quick
	case "full":
		scale = experiments.Full
	case "bench":
		scale = experiments.Bench
	default:
		log.Fatalf("unknown scale %q", *scaleName)
	}
	if *steps > 0 {
		scale.Steps = *steps
	}
	if *groups > 0 {
		scale.NumGroups = *groups
	}

	var out io.Writer = os.Stdout
	if *outPath != "" {
		f, err := os.Create(*outPath)
		if err != nil {
			log.Fatal(err)
		}
		defer f.Close()
		out = f
	}

	start := time.Now()
	suite, err := experiments.NewSuite(scale)
	if err != nil {
		log.Fatal(err)
	}
	suite.Incremental = *incremental
	suite.DeltaWire = *deltaWire && *incremental
	protocol := "incremental maintenance"
	if !*incremental {
		protocol = "full replan per update"
	} else if suite.DeltaWire {
		protocol = "incremental maintenance, delta wire"
	}
	fmt.Fprintf(out, "workloads ready in %v: %d POIs, 2×%d trajectories × %d steps, %d groups (%s)\n\n",
		time.Since(start).Round(time.Millisecond), len(suite.POIs),
		scale.NumTrajectories, scale.Steps, scale.NumGroups, protocol)

	gens := map[string]func() ([]experiments.Figure, error){
		"13": suite.Fig13, "14": suite.Fig14, "15": suite.Fig15,
		"16": suite.Fig16, "17": suite.Fig17, "18": suite.Fig18,
		"19": suite.Fig19,
	}
	order := []string{"13", "14", "15", "16", "17", "18", "19"}

	var selected []string
	if *figArg == "all" {
		selected = order
	} else {
		for _, f := range strings.Split(*figArg, ",") {
			if _, ok := gens[f]; !ok {
				log.Fatalf("unknown figure %q (valid: %s)", f, strings.Join(order, ","))
			}
			selected = append(selected, f)
		}
	}

	var all []experiments.Figure
	for _, id := range selected {
		figStart := time.Now()
		figs, err := gens[id]()
		if err != nil {
			log.Fatalf("figure %s: %v", id, err)
		}
		for _, f := range figs {
			fmt.Fprintln(out, f.Table())
		}
		all = append(all, figs...)
		fmt.Fprintf(out, "(figure %s regenerated in %v)\n\n", id, time.Since(figStart).Round(time.Millisecond))
	}

	// Verdicts on the paper's qualitative claims.
	fmt.Fprintln(out, "shape checks (paper's qualitative claims):")
	passed, failed := 0, 0
	for _, r := range experiments.CheckShapes(all) {
		fmt.Fprintf(out, "  %s\n", r)
		if r.Pass {
			passed++
		} else {
			failed++
		}
	}
	fmt.Fprintf(out, "shapes: %d passed, %d failed\n\n", passed, failed)
	fmt.Fprintf(out, "total: %v\n", time.Since(start).Round(time.Millisecond))
}
