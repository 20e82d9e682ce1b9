package main

import (
	"fmt"
	"math"

	"mpn/internal/geom"
	"mpn/internal/gnn"
	"mpn/internal/netmpn"
	"mpn/internal/roadnet"
	"mpn/internal/workload"
)

// oracleTol is how far the served meeting point's aggregate distance may
// sit from the brute-force optimum.
const oracleTol = 1e-9

// serverPOIs regenerates the POI set an Euclidean workload's server
// generated for itself.
func serverPOIs(sp spec) ([]geom.Point, error) {
	cfg := workload.DefaultPOIConfig()
	cfg.N = sp.pois
	cfg.Seed = serverPOISeed
	return workload.GeneratePOIs(cfg)
}

// roadWorld rebuilds the road network and POI placement the server's
// "net" method builds: a POI on every 9th node of the default network.
func roadWorld(sp spec) (*roadnet.Network, []int, netmpn.BackendConfig, error) {
	netw, err := roadnet.Generate(roadnet.DefaultConfig())
	if err != nil {
		return nil, nil, netmpn.BackendConfig{}, err
	}
	var poiNodes []int
	for i := 0; i < netw.NumNodes(); i += 9 {
		poiNodes = append(poiNodes, i)
	}
	agg := netmpn.Max
	if sp.agg == gnn.Sum {
		agg = netmpn.Sum
	}
	return netw, poiNodes, netmpn.BackendConfig{Aggregate: agg, CacheEntries: 256}, nil
}

// oracle checks the sampled ops against brute force: the served meeting
// point's aggregate distance must equal the optimum over the regenerated
// POI set — gnn.BruteTopK for the Euclidean workloads, the naive
// netmpn.Server.Plan for net_road. It runs after the timed phase.
func oracle(sp spec, samples []sample) (int, error) {
	if sp.net {
		return netOracle(sp, samples)
	}
	pois, err := serverPOIs(sp)
	if err != nil {
		return 0, err
	}
	for i, s := range samples {
		want := gnn.BruteTopK(pois, s.users, sp.agg, 1)[0].Dist
		got := sp.agg.PointDist(s.meeting, s.users)
		if math.Abs(got-want) > oracleTol {
			return i, fmt.Errorf("sample %d: served meeting point %v has aggregate distance %.12g, brute force finds %.12g", i, s.meeting, got, want)
		}
	}
	return len(samples), nil
}

func netOracle(sp spec, samples []sample) (int, error) {
	netw, poiNodes, cfg, err := roadWorld(sp)
	if err != nil {
		return 0, err
	}
	backend, err := netmpn.NewBackend(netw, poiNodes, cfg)
	if err != nil {
		return 0, err
	}
	naive := backend.Server()
	nodeAt := make(map[geom.Point]int, len(poiNodes))
	for _, n := range poiNodes {
		nodeAt[netw.Nodes[n].P] = n
	}
	for i, s := range samples {
		pos := make([]netmpn.Position, len(s.users))
		for j, u := range s.users {
			pos[j] = backend.Snap(u)
		}
		want, _, err := naive.Plan(pos, cfg.Aggregate)
		if err != nil {
			return i, fmt.Errorf("sample %d: %w", i, err)
		}
		node, ok := nodeAt[s.meeting]
		if !ok {
			return i, fmt.Errorf("sample %d: served meeting point %v is not a POI node", i, s.meeting)
		}
		got := 0.0
		for _, p := range pos {
			d := naive.Dist(p, node)
			if cfg.Aggregate == netmpn.Max {
				got = math.Max(got, d)
			} else {
				got += d
			}
		}
		if math.Abs(got-want.Dist) > oracleTol {
			return i, fmt.Errorf("sample %d: served meeting node %d has aggregate network distance %.12g, naive plan finds %.12g", i, node, got, want.Dist)
		}
	}
	return len(samples), nil
}
