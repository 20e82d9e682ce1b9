// Package experiments regenerates every figure of the paper's evaluation
// (Section 7). Each FigXX method runs the relevant parameter sweep over
// both trajectory workloads and returns text-table figures whose rows and
// series mirror the paper's plots:
//
//	Fig. 13 — vary group size m (MPN): update frequency, packets, CPU
//	Fig. 14 — vary data size n (MPN): update frequency, packets
//	Fig. 15 — vary user speed (MPN): update frequency, packets
//	Fig. 16 — vary buffer b (MPN): CPU, update frequency
//	Fig. 17 — vary group size m (Sum-MPN): update frequency, packets, CPU
//	Fig. 18 — vary data size n (Sum-MPN): update frequency, packets
//	Fig. 19 — vary buffer b (Sum-MPN): CPU, update frequency
//
// The Scale type trades wall-clock time for fidelity; Full reproduces the
// paper's workload sizes, Quick and Bench shrink the trajectory length and
// group count while keeping the POI cardinality and all algorithm
// parameters at their paper defaults.
package experiments

import (
	"fmt"
	"time"

	"mpn/internal/geom"
	"mpn/internal/gnn"
	"mpn/internal/sim"
	"mpn/internal/stats"
	"mpn/internal/workload"
)

// Scale fixes the workload sizes of a suite.
type Scale struct {
	// Steps is the trajectory length replayed per run.
	Steps int
	// NumGroups is how many user groups results are averaged over.
	NumGroups int
	// NumTrajectories is the trajectory-set size (must be ≥
	// NumGroups·max group size).
	NumTrajectories int
	// POIN is the POI cardinality N.
	POIN int
	// Speed is the speed limit V (distance per timestamp). The default
	// 5e-5 matches a ~50 km/h vehicle sampled at 1 Hz against the POI
	// spacing of the 21k-point set (≈ 0.7% of the mean spacing per tick),
	// mirroring the paper's real-workload regime.
	Speed float64
	// Seed drives all generation.
	Seed int64
}

// Full is the paper's scale: 60 trajectories of 10,000 timestamps in 10
// groups over 21,287 POIs.
var Full = Scale{
	Steps: 10000, NumGroups: 10, NumTrajectories: 60,
	POIN: workload.DefaultPOICount, Speed: 5e-5, Seed: 7,
}

// Quick keeps N and all algorithm parameters but shortens trajectories and
// averages over fewer groups; it reproduces every qualitative shape in
// minutes on one core.
var Quick = Scale{
	Steps: 1500, NumGroups: 2, NumTrajectories: 12,
	POIN: workload.DefaultPOICount, Speed: 5e-5, Seed: 7,
}

// Bench is the smallest useful scale, used by the testing.B benchmarks.
var Bench = Scale{
	Steps: 400, NumGroups: 1, NumTrajectories: 6,
	POIN: 4000, Speed: 1e-4, Seed: 7,
}

// Figure is one plot of the paper rendered as rows (x-axis values) by
// series (methods).
type Figure struct {
	ID     string
	Title  string
	XLabel string
	Metric string
	Series []string
	Rows   []Row
}

// Row is one x-axis point with one value per series.
type Row struct {
	X      string
	Values map[string]float64
}

// Get returns the value of series s in the row (0 when missing).
func (r Row) Get(s string) float64 { return r.Values[s] }

// Table renders the figure as an aligned text table.
func (f Figure) Table() string {
	t := stats.Table{
		Title:   fmt.Sprintf("%s — %s [%s]", f.ID, f.Title, f.Metric),
		Columns: append([]string{f.XLabel}, f.Series...),
	}
	for _, row := range f.Rows {
		cells := []string{row.X}
		for _, s := range f.Series {
			cells = append(cells, stats.FormatFloat(row.Values[s]))
		}
		t.AddRow(cells...)
	}
	return t.String()
}

// Suite holds the generated workloads shared by all experiments.
type Suite struct {
	Scale  Scale
	Params workload.Params
	POIs   []geom.Point
	Sets   []*workload.TrajectorySet // GeoLife-style, Oldenburg-style

	// Incremental replays every run under the paper's incremental
	// maintenance protocol (sim.Config.Incremental): the server retains
	// each group's plan and regrows only what an update invalidates, so
	// the CPU-per-update figures measure the protocol the paper actually
	// proposes. False replays the historical full-replan accounting.
	Incremental bool
	// DeltaWire replays the figures under the delta notification
	// protocol (sim.Config.DeltaWire): members whose region content did
	// not change receive a region-less delta frame, so the packets/bytes
	// measures reflect what the coordinator actually ships. Requires Incremental to have any effect.
	DeltaWire bool
}

// NewSuite generates the POI set and both trajectory workloads.
func NewSuite(scale Scale) (*Suite, error) {
	if scale.Steps < 2 || scale.NumGroups < 1 {
		return nil, fmt.Errorf("experiments: invalid scale %+v", scale)
	}
	poiCfg := workload.DefaultPOIConfig()
	poiCfg.N = scale.POIN
	poiCfg.Seed = scale.Seed
	pois, err := workload.GeneratePOIs(poiCfg)
	if err != nil {
		return nil, err
	}
	setCfg := workload.SetConfig{
		NumTrajectories: scale.NumTrajectories,
		Steps:           scale.Steps,
		Speed:           scale.Speed,
		Seed:            scale.Seed,
	}
	geo, err := workload.GenerateGeoLifeSet(setCfg)
	if err != nil {
		return nil, err
	}
	old, err := workload.GenerateOldenburgSet(setCfg)
	if err != nil {
		return nil, err
	}
	return &Suite{
		Scale:  scale,
		Params: workload.DefaultParams(),
		POIs:   pois,
		Sets:   []*workload.TrajectorySet{geo, old},
	}, nil
}

// result is the average of sim metrics over the suite's groups.
type result struct {
	updateFreq float64
	packetsK   float64
	cpuMS      float64
}

// runAvg simulates cfg over NumGroups groups of size m drawn from set and
// averages the three reported measures.
func (s *Suite) runAvg(pois []geom.Point, set *workload.TrajectorySet, m int, cfg sim.Config) (result, error) {
	groups, err := set.Groups(m, s.Scale.NumGroups)
	if err != nil {
		return result{}, err
	}
	cfg.Incremental = s.Incremental
	cfg.DeltaWire = s.DeltaWire
	var uf, pk, cpu []float64
	for _, g := range groups {
		met, err := sim.Run(pois, g, cfg)
		if err != nil {
			return result{}, err
		}
		uf = append(uf, met.UpdateFrequency())
		pk = append(pk, met.PacketsPerK())
		cpu = append(cpu, float64(met.CPUPerUpdate())/float64(time.Millisecond))
	}
	return result{
		updateFreq: stats.Mean(uf),
		packetsK:   stats.Mean(pk),
		cpuMS:      stats.Mean(cpu),
	}, nil
}

// methodConfigs returns the three standard series of Figs. 13–15/17–18.
func methodConfigs(agg gnn.Aggregate) []sim.Config {
	return []sim.Config{
		sim.MethodConfig(sim.MethodCircle, agg, 0),
		sim.MethodConfig(sim.MethodTile, agg, 0),
		sim.MethodConfig(sim.MethodTileD, agg, 0),
	}
}

var methodNames = []string{"Circle", "Tile", "Tile-D"}

// sweep runs the standard three methods across x-axis points produced by
// prepare and assembles one figure per (dataset, metric). Each (dataset,
// x, method) cell is simulated once; every metric reads the same run.
func (s *Suite) sweep(
	figBase, title, xLabel string,
	agg gnn.Aggregate,
	xs []string,
	metrics []string, // subset of "updates", "packets", "cpu"
	prepare func(xIdx int, set *workload.TrajectorySet) ([]geom.Point, *workload.TrajectorySet, int, error),
) ([]Figure, error) {
	cells := make([][][]result, len(s.Sets))
	for si, set := range s.Sets {
		cells[si] = make([][]result, len(xs))
		for xi := range xs {
			pois, useSet, m, err := prepare(xi, set)
			if err != nil {
				return nil, err
			}
			for _, cfg := range methodConfigs(agg) {
				res, err := s.runAvg(pois, useSet, m, cfg)
				if err != nil {
					return nil, err
				}
				cells[si][xi] = append(cells[si][xi], res)
			}
		}
	}
	return s.figures(figBase, title, xLabel, xs, methodNames, metrics, cells), nil
}

// figures lays simulated cells out as one figure per (metric, dataset),
// metric-major as the paper letters its sub-figures: cells[d][x][k] is
// dataset d's result at x-axis point x for series k.
func (s *Suite) figures(figBase, title, xLabel string, xs, series, metrics []string, cells [][][]result) []Figure {
	figs := make([]Figure, 0, len(s.Sets)*len(metrics))
	for _, metric := range metrics {
		for si, set := range s.Sets {
			fig := Figure{
				ID:     fmt.Sprintf("%s%c", figBase, 'a'+len(figs)),
				Title:  fmt.Sprintf("%s (%s)", title, set.Name),
				XLabel: xLabel,
				Metric: metricLabel(metric),
				Series: series,
			}
			for xi, x := range xs {
				row := Row{X: x, Values: map[string]float64{}}
				for k, name := range series {
					row.Values[name] = pick(cells[si][xi][k], metric)
				}
				fig.Rows = append(fig.Rows, row)
			}
			figs = append(figs, fig)
		}
	}
	return figs
}

func metricLabel(metric string) string {
	switch metric {
	case "updates":
		return "updates / 1k timestamps"
	case "packets":
		return "packets / 1k timestamps"
	default:
		return "CPU ms / update"
	}
}

func pick(r result, metric string) float64 {
	switch metric {
	case "updates":
		return r.updateFreq
	case "packets":
		return r.packetsK
	default:
		return r.cpuMS
	}
}

// Fig13 varies the group size m for MPN (update frequency, communication
// cost, and running time on both data sets — six sub-figures).
func (s *Suite) Fig13() ([]Figure, error) { return s.groupSizeSweep("Fig13", gnn.Max) }

// Fig17 is the Sum-MPN analog of Fig13.
func (s *Suite) Fig17() ([]Figure, error) { return s.groupSizeSweep("Fig17", gnn.Sum) }

func (s *Suite) groupSizeSweep(id string, agg gnn.Aggregate) ([]Figure, error) {
	sizes := s.Params.GroupSizes
	xs := make([]string, len(sizes))
	for i, m := range sizes {
		xs[i] = fmt.Sprintf("m=%d", m)
	}
	return s.sweep(id, "vary group size", "m", agg, xs,
		[]string{"updates", "packets", "cpu"},
		func(xi int, set *workload.TrajectorySet) ([]geom.Point, *workload.TrajectorySet, int, error) {
			return s.POIs, set, sizes[xi], nil
		})
}

// Fig14 varies the POI data size n for MPN.
func (s *Suite) Fig14() ([]Figure, error) { return s.dataSizeSweep("Fig14", gnn.Max) }

// Fig18 is the Sum-MPN analog of Fig14.
func (s *Suite) Fig18() ([]Figure, error) { return s.dataSizeSweep("Fig18", gnn.Sum) }

func (s *Suite) dataSizeSweep(id string, agg gnn.Aggregate) ([]Figure, error) {
	fracs := s.Params.DataFracs
	xs := make([]string, len(fracs))
	subsets := make([][]geom.Point, len(fracs))
	for i, f := range fracs {
		xs[i] = fmt.Sprintf("%.2fN", f)
		sub, err := workload.SubsetPOIs(s.POIs, f, s.Scale.Seed+int64(i))
		if err != nil {
			return nil, err
		}
		subsets[i] = sub
	}
	return s.sweep(id, "vary data size", "n", agg, xs,
		[]string{"updates", "packets"},
		func(xi int, set *workload.TrajectorySet) ([]geom.Point, *workload.TrajectorySet, int, error) {
			return subsets[xi], set, s.Params.DefaultM, nil
		})
}

// Fig15 varies the user speed for MPN.
func (s *Suite) Fig15() ([]Figure, error) {
	fracs := s.Params.SpeedFracs
	xs := make([]string, len(fracs))
	resampled := make(map[string][]*workload.TrajectorySet)
	for i, f := range fracs {
		xs[i] = fmt.Sprintf("%.2fV", f)
	}
	for _, set := range s.Sets {
		var list []*workload.TrajectorySet
		for _, f := range fracs {
			rs, err := set.ResampleSpeed(f)
			if err != nil {
				return nil, err
			}
			list = append(list, rs)
		}
		resampled[set.Name] = list
	}
	return s.sweep("Fig15", "vary user speed", "speed", gnn.Max, xs,
		[]string{"updates", "packets"},
		func(xi int, set *workload.TrajectorySet) ([]geom.Point, *workload.TrajectorySet, int, error) {
			return s.POIs, resampled[set.Name][xi], s.Params.DefaultM, nil
		})
}

// Fig16 varies the buffering parameter b for MPN, comparing Tile-D with
// Tile-D-b on CPU time and update frequency.
func (s *Suite) Fig16() ([]Figure, error) { return s.bufferSweep("Fig16", gnn.Max) }

// Fig19 is the Sum-MPN analog of Fig16.
func (s *Suite) Fig19() ([]Figure, error) { return s.bufferSweep("Fig19", gnn.Sum) }

func (s *Suite) bufferSweep(id string, agg gnn.Aggregate) ([]Figure, error) {
	bs := s.Params.Buffers
	xs := make([]string, len(bs))
	for i, b := range bs {
		xs[i] = fmt.Sprintf("b=%d", b)
	}
	cells := make([][][]result, len(s.Sets))
	for si, set := range s.Sets {
		// Tile-D is independent of b: one run reused per row.
		base, err := s.runAvg(s.POIs, set, s.Params.DefaultM,
			sim.MethodConfig(sim.MethodTileD, agg, 0))
		if err != nil {
			return nil, err
		}
		for _, b := range bs {
			buf, err := s.runAvg(s.POIs, set, s.Params.DefaultM,
				sim.MethodConfig(sim.MethodTileD, agg, b))
			if err != nil {
				return nil, err
			}
			cells[si] = append(cells[si], []result{base, buf})
		}
	}
	return s.figures(id, "vary buffer b", "b", xs, []string{"Tile-D", "Tile-D-b"},
		[]string{"cpu", "updates"}, cells), nil
}
