package core

import (
	"errors"

	"mpn/internal/geom"
	"mpn/internal/nbrcache"
)

// ErrNoNetBackend is returned by Plan for a KindNetRange request on a
// planner with no registered network backend.
var ErrNoNetBackend = errors.New("core: no network backend registered")

// ErrFixedPOIs is returned by ApplyPOIs on a planner with a registered
// network backend: the backend plans from POI distances it computed once,
// at construction, so a mutated POI set would be indexed but never
// planned with.
var ErrFixedPOIs = errors.New("core: the POI set of a road-network planner is fixed")

// PlanRequest describes one safe-region computation to Plan: the region
// kind (which selects the planning backend), the group's locations and
// optional headings, and the optional retained incremental state.
type PlanRequest struct {
	// Kind selects the safe-region representation — and with it the
	// planning backend: KindTiles and KindCircle run the Euclidean
	// planners over the POI R-tree; KindNetRange dispatches to the
	// registered network backend (see Planner.RegisterNetBackend).
	Kind RegionKind

	// Users holds the group members' current locations.
	Users []geom.Point

	// Dirs optionally holds per-member travel headings for the directed
	// tile ordering. Ignored unless Kind is KindTiles with
	// Options.Directed; may be nil or mismatched in length (both fall
	// back to undirected defaults).
	Dirs []Direction

	// Cache is accepted and ignored; removed with ROADMAP 9.
	Cache *nbrcache.Cache

	// State optionally carries the group's retained plan for incremental
	// maintenance: non-nil selects the incremental path (kept/partial
	// outcomes possible), nil recomputes from scratch. Every recomputed
	// plan is recorded into it.
	State *PlanState
}

// Plan is the single planning entry point: every safe-region computation
// — any region kind, incremental or from scratch — is one call with the
// parameters carried in req.
//
// The returned IncOutcome is meaningful when req.State is non-nil;
// from-scratch computations always report IncFull. Plans are exported by
// copy (never aliasing ws) except on IncKept, where regions alias the
// retained previously-exported plan.
func (pl *Planner) Plan(ws *Workspace, req PlanRequest) (Plan, IncOutcome, error) {
	switch req.Kind {
	case KindCircle:
		if req.State != nil {
			return pl.circleMSRInc(ws, req.State, req.Users)
		}
		p, err := pl.circleMSR(ws, req.Users)
		return p, IncFull, err
	case KindNetRange:
		b := pl.netBackend
		if b == nil {
			return Plan{}, IncFull, ErrNoNetBackend
		}
		return b.PlanNet(ws, req)
	default: // KindTiles
		if req.State != nil {
			return pl.tileMSRInc(ws, req.State, req.Users, req.Dirs)
		}
		p, err := pl.tileMSR(ws, req.Users, req.Dirs)
		return p, IncFull, err
	}
}

// NetBackend is a road-network planning backend: an implementation that
// answers KindNetRange requests with network meeting points and
// KindNetRange safe regions, honoring the same contract as the Euclidean
// paths (exported plans, PlanState protocol, IncOutcome semantics).
// Implementations must be safe for concurrent use with distinct
// workspaces and states.
type NetBackend interface {
	PlanNet(ws *Workspace, req PlanRequest) (Plan, IncOutcome, error)
}

// RegisterNetBackend installs the network backend Plan dispatches
// KindNetRange requests to, and from then on refuses POI mutation (see
// ErrFixedPOIs). Call once, before planning begins; a nil backend
// unregisters.
func (pl *Planner) RegisterNetBackend(b NetBackend) { pl.netBackend = b }
