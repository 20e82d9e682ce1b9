package core

import (
	"mpn/internal/geom"
	"mpn/internal/gnn"
	"mpn/internal/nbrcache"
)

// circleMSR implements Algorithm 1 (Circle-MSR): it retrieves the best two
// meeting points with a top-2 GNN query and assigns every user a circle of
// the maximal common radius
//
//	MAX:  rmax = (‖p²,U‖max − ‖p°,U‖max) / 2        (Theorem 1, Eq. 6)
//	SUM:  rmax = (‖p²,U‖sum − ‖p°,U‖sum) / (2m)     (Theorem 5, Eq. 11)
//
// where p² is the runner-up. When the data set holds a single POI, the
// result can never change and the radius is unbounded; we return circles
// covering the whole plane via an effectively infinite radius derived from
// the data diameter.
//
// The top-2 GNN runs on the workspace's typed heap and result buffer (or
// through the shared neighborhood cache when one is given — the plan is
// byte-identical either way), so the only allocation in steady state is
// the returned region slice (which does not alias ws and survives its
// reuse).
func (pl *Planner) circleMSR(ws *Workspace, cache *nbrcache.Cache, users []geom.Point) (Plan, error) {
	if len(users) == 0 {
		return Plan{}, ErrNoUsers
	}
	snap := pl.Acquire()
	defer snap.Release()
	return pl.circleMSRSnap(ws, cache, snap, users)
}

// circleMSRSnap runs circle planning entirely against one pinned
// snapshot; callers that already hold a snapshot (the incremental
// planner's full fallback) reuse it so the whole update sees a single
// index state.
func (pl *Planner) circleMSRSnap(ws *Workspace, cache *nbrcache.Cache, snap *Snapshot, users []geom.Point) (Plan, error) {
	var plan Plan
	plan.Stats.IndexVersion = snap.version
	ws.topk = pl.lookupTopK(ws, cache, snap, users, 2)
	plan.Stats.GNNCalls++
	plan.Best = ws.topk[0]

	r := pl.circleRadius(users, ws.topk)
	plan.Regions = make([]SafeRegion, len(users))
	for i, u := range users {
		plan.Regions[i] = CircleRegion(u, r)
	}
	return plan, nil
}

// circleRadius computes the maximal safe radius from a top-2 GNN result.
func (pl *Planner) circleRadius(users []geom.Point, top []gnn.Result) float64 {
	if len(top) < 2 {
		// Single POI: no competitor can ever take over. Any radius is
		// safe; pick one that dwarfs the workload extent.
		return 1e18
	}
	gap := top[1].Dist - top[0].Dist
	if gap < 0 {
		gap = 0
	}
	if pl.opts.Aggregate == gnn.Max {
		return gap / 2
	}
	return gap / (2 * float64(len(users)))
}
