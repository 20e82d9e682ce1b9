// Package workload generates the data sets and parameter grids of the
// paper's evaluation (Section 7.1):
//
//   - a POI set standing in for the 21,287-point pocketgpsworld.com
//     snapshot: a mixture of Gaussian city clusters over the unit square
//     with a uniform background, matching the density skew that drives the
//     experiments;
//   - the two trajectory sets ("GeoLife"-style and "Oldenburg"-style),
//     each 60 trajectories of 10,000+ timestamps partitioned into 10 user
//     groups as in the paper;
//   - the Table 2 parameter grid with its defaults and ranges.
package workload

import (
	"fmt"
	"math/rand"

	"mpn/internal/geom"
	"mpn/internal/mobility"
	"mpn/internal/roadnet"
)

// DefaultPOICount is N, the cardinality of the paper's real POI set.
const DefaultPOICount = 21287

// POIConfig controls POI generation.
type POIConfig struct {
	// N is the number of points.
	N int
	// Seed drives generation deterministically.
	Seed int64
}

// The shape of the generated set mimics the UK POI snapshot: strong urban
// clustering with a thin uniform background.
const (
	poiClusters    = 40   // Gaussian city clusters
	poiSigma       = 0.03 // cluster standard deviation
	poiUniformFrac = 0.25 // fraction of points drawn uniformly (rural POIs)
)

// DefaultPOIConfig is the paper-sized set under the fixed default seed.
func DefaultPOIConfig() POIConfig {
	return POIConfig{N: DefaultPOICount, Seed: 42}
}

// GeneratePOIs returns cfg.N points in the unit square.
func GeneratePOIs(cfg POIConfig) ([]geom.Point, error) {
	if cfg.N <= 0 {
		return nil, fmt.Errorf("workload: N %d must be positive", cfg.N)
	}
	rng := rand.New(rand.NewSource(cfg.Seed))

	centers := make([]geom.Point, poiClusters)
	weights := make([]float64, poiClusters)
	totalW := 0.0
	for i := range centers {
		centers[i] = geom.Pt(rng.Float64(), rng.Float64())
		// Zipf-ish city sizes.
		weights[i] = 1 / float64(i+1)
		totalW += weights[i]
	}

	pts := make([]geom.Point, 0, cfg.N)
	for len(pts) < cfg.N {
		if rng.Float64() < poiUniformFrac {
			pts = append(pts, geom.Pt(rng.Float64(), rng.Float64()))
			continue
		}
		// Weighted cluster choice.
		target := rng.Float64() * totalW
		ci := 0
		for acc := weights[0]; acc < target && ci < poiClusters-1; {
			ci++
			acc += weights[ci]
		}
		p := geom.Pt(
			centers[ci].X+rng.NormFloat64()*poiSigma,
			centers[ci].Y+rng.NormFloat64()*poiSigma,
		)
		if p.X < 0 || p.X > 1 || p.Y < 0 || p.Y > 1 {
			continue // resample points that fall outside the space
		}
		pts = append(pts, p)
	}
	return pts, nil
}

// SubsetPOIs returns a deterministic random subset containing frac of the
// points, for the data-size experiments (n ∈ {0.25, 0.5, 0.75, 1.0}·N).
func SubsetPOIs(pts []geom.Point, frac float64, seed int64) ([]geom.Point, error) {
	if frac <= 0 || frac > 1 {
		return nil, fmt.Errorf("workload: fraction %v out of (0,1]", frac)
	}
	n := int(float64(len(pts)) * frac)
	if n < 1 {
		n = 1
	}
	if n >= len(pts) {
		out := make([]geom.Point, len(pts))
		copy(out, pts)
		return out, nil
	}
	rng := rand.New(rand.NewSource(seed))
	perm := rng.Perm(len(pts))
	out := make([]geom.Point, n)
	for i := 0; i < n; i++ {
		out[i] = pts[perm[i]]
	}
	return out, nil
}

// TrajectorySet is a named collection of trajectories (one workload of
// Section 7.1).
type TrajectorySet struct {
	Name  string
	Trajs []mobility.Trajectory
}

// SetConfig controls trajectory-set generation.
type SetConfig struct {
	// NumTrajectories is the set size (the paper uses 60).
	NumTrajectories int
	// Steps is the timestamp count per trajectory (>10,000 in the paper).
	Steps int
	// Speed is the speed limit V in distance per timestamp.
	Speed float64
	// Seed drives generation.
	Seed int64
}

// GenerateGeoLifeSet builds the waypoint-model trajectory set.
func GenerateGeoLifeSet(cfg SetConfig) (*TrajectorySet, error) {
	if cfg.NumTrajectories <= 0 {
		return nil, fmt.Errorf("workload: NumTrajectories %d must be positive", cfg.NumTrajectories)
	}
	set := &TrajectorySet{Name: "geolife"}
	for i := 0; i < cfg.NumTrajectories; i++ {
		wc := mobility.DefaultWaypointConfig()
		wc.Steps = cfg.Steps
		wc.Speed = cfg.Speed
		wc.Seed = cfg.Seed + int64(i)*1000003
		traj, err := mobility.GeoLifeStyle(wc)
		if err != nil {
			return nil, err
		}
		set.Trajs = append(set.Trajs, traj)
	}
	return set, nil
}

// GenerateOldenburgSet builds the network-constrained trajectory set over
// a freshly generated road network.
func GenerateOldenburgSet(cfg SetConfig) (*TrajectorySet, error) {
	if cfg.NumTrajectories <= 0 {
		return nil, fmt.Errorf("workload: NumTrajectories %d must be positive", cfg.NumTrajectories)
	}
	netCfg := roadnet.DefaultConfig()
	netCfg.Seed = cfg.Seed
	net, err := roadnet.Generate(netCfg)
	if err != nil {
		return nil, err
	}
	set := &TrajectorySet{Name: "oldenburg"}
	for i := 0; i < cfg.NumTrajectories; i++ {
		nc := mobility.DefaultNetworkConfig()
		nc.Steps = cfg.Steps
		nc.Speed = cfg.Speed
		nc.Seed = cfg.Seed + int64(i)*999983
		traj, err := mobility.NetworkTrajectory(net, nc)
		if err != nil {
			return nil, err
		}
		set.Trajs = append(set.Trajs, traj)
	}
	return set, nil
}

// Groups partitions the set into numGroups user groups of groupSize
// trajectories each, as the paper partitions its 60 trajectories into 10
// groups. Group g gets trajectories g·K … g·K+groupSize−1 where K =
// len/numGroups, so growing the group size keeps earlier members stable.
func (s *TrajectorySet) Groups(groupSize, numGroups int) ([][]mobility.Trajectory, error) {
	if groupSize <= 0 || numGroups <= 0 {
		return nil, fmt.Errorf("workload: groupSize %d / numGroups %d must be positive", groupSize, numGroups)
	}
	per := len(s.Trajs) / numGroups
	if per == 0 || groupSize > per {
		return nil, fmt.Errorf("workload: cannot form %d groups of %d from %d trajectories",
			numGroups, groupSize, len(s.Trajs))
	}
	groups := make([][]mobility.Trajectory, numGroups)
	for g := 0; g < numGroups; g++ {
		groups[g] = s.Trajs[g*per : g*per+groupSize]
	}
	return groups, nil
}

// ResampleSpeed applies mobility.ResampleSpeed to every trajectory of the
// set, returning a new set for the speed experiments.
func (s *TrajectorySet) ResampleSpeed(frac float64) (*TrajectorySet, error) {
	out := &TrajectorySet{Name: fmt.Sprintf("%s@%.2fV", s.Name, frac)}
	for _, tr := range s.Trajs {
		rs, err := mobility.ResampleSpeed(tr, frac)
		if err != nil {
			return nil, err
		}
		out.Trajs = append(out.Trajs, rs)
	}
	return out, nil
}

// Params is the Table 2 experiment grid.
type Params struct {
	// DataFracs are the data-size fractions of N.
	DataFracs []float64
	// GroupSizes are the user group sizes m.
	GroupSizes []int
	// SpeedFracs are the speed fractions of V.
	SpeedFracs []float64
	// Buffers are the buffering parameter values b (Figs. 16 and 19).
	Buffers []int
	// Defaults.
	DefaultM         int
	DefaultDataFrac  float64
	DefaultSpeedFrac float64
	DefaultBuffer    int
	TileLimit        int // α
	SplitLevel       int // L
}

// DefaultParams returns the paper's Table 2 values plus the Fig. 16 buffer
// range and the recommended b=100 default.
func DefaultParams() Params {
	return Params{
		DataFracs:        []float64{0.25, 0.5, 0.75, 1.0},
		GroupSizes:       []int{2, 3, 4, 5, 6},
		SpeedFracs:       []float64{0.25, 0.5, 0.75, 1.0},
		Buffers:          []int{10, 25, 50, 75, 100},
		DefaultM:         3,
		DefaultDataFrac:  1.0,
		DefaultSpeedFrac: 1.0,
		DefaultBuffer:    100,
		TileLimit:        30,
		SplitLevel:       2,
	}
}
