// Package serving assembles the serving stack — POI planner, road-network
// backend and group engine — from one Config. It is the
// only place that stack is built: the public mpn.NewServer and the
// mpnserver binary each map their options or flags onto a Config and call
// New, so the two front ends cannot disagree on how the pieces fit.
package serving

import (
	"errors"

	"mpn/internal/core"
	"mpn/internal/engine"
	"mpn/internal/geom"
	"mpn/internal/gnn"
	"mpn/internal/netmpn"
	"mpn/internal/roadnet"
)

// Config describes one serving stack.
type Config struct {
	// Kind selects the safe-region representation and with it the
	// planning backend (see core.PlanRequest.Kind).
	Kind core.RegionKind
	// Core configures the planner; Core.Aggregate also sets the network
	// backend's objective.
	Core core.Options
	// POIs is the Euclidean POI set. It is ignored under KindNetRange,
	// whose POI set is the embedded coordinates of POINodes.
	POIs []geom.Point
	// Network is the road network KindNetRange plans over, and POINodes
	// the nodes (indices into Network.Nodes) that carry its POIs. Network
	// is required by KindNetRange and refused by every other kind.
	Network  *roadnet.Network
	POINodes []int
	// Incremental retains each group's plan and regrows only what an
	// update invalidates.
	Incremental bool
	// Engine sizes the group engine and carries its Journal. Its Replan
	// field is set by New from Incremental.
	Engine engine.Options
}

// Stack is an assembled serving stack.
type Stack struct {
	Planner *core.Planner
	// Plan computes a from-scratch plan: the engine's planner when it is
	// not incremental, and the one-shot planner of callers without a
	// group.
	Plan   engine.PlanWSFunc
	Engine *engine.Engine
}

// New builds the stack cfg describes. Close the returned Engine to
// release its workers.
func New(cfg Config) (*Stack, error) {
	pois := cfg.POIs
	if cfg.Kind == core.KindNetRange {
		if cfg.Network == nil {
			return nil, errors.New("serving: network range planning requires a road network")
		}
		pois = make([]geom.Point, len(cfg.POINodes))
		for i, n := range cfg.POINodes {
			pois[i] = cfg.Network.Nodes[n].P
		}
	} else if cfg.Network != nil {
		return nil, errors.New("serving: a road network requires network range planning")
	}
	planner, err := core.NewPlanner(pois, cfg.Core)
	if err != nil {
		return nil, err
	}
	if cfg.Network != nil {
		agg := netmpn.Max
		if cfg.Core.Aggregate == gnn.Sum {
			agg = netmpn.Sum
		}
		backend, err := netmpn.NewBackend(cfg.Network, cfg.POINodes, netmpn.BackendConfig{Aggregate: agg})
		if err != nil {
			return nil, err
		}
		planner.RegisterNetBackend(backend)
	}
	st := &Stack{Planner: planner, Plan: engine.PlannerKindWSFunc(planner, cfg.Kind, nil)}
	cfg.Engine.Replan = nil
	if cfg.Incremental {
		cfg.Engine.Replan = engine.PlannerKindIncFunc(planner, cfg.Kind, nil)
	}
	st.Engine = engine.NewWS(st.Plan, cfg.Engine)
	return st, nil
}
