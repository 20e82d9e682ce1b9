package core

import (
	"sync"

	"mpn/internal/geom"
	"mpn/internal/gnn"
)

// Workspace carries all per-computation scratch state of the safe-region
// planners: the typed best-first heap and explicit traversal stack of the
// R-tree searches, the top-k GNN result buffer, the candidate buffer,
// running region aggregates, per-tile ‖p°,·‖max record, bound slices,
// per-(member, candidate) memo and per-member pre-reject witnesses of the
// verification step, and the per-user tile orderings.
//
// Planner.Plan draws every piece of mutable state from the workspace, so a caller that reuses one
// workspace across computations — the engine's workers each own one for
// their whole lifetime — reaches a steady state of near-zero allocations
// per plan: only the returned Plan's regions are freshly allocated
// (exactly two allocations: one SafeRegion header slice and one shared
// tile arena), making the result safe to retain after the workspace is
// reused.
//
// The zero value is ready to use. A Workspace is not safe for concurrent
// use; give each goroutine its own, or borrow one from the package pool
// with GetWorkspace/PutWorkspace.
type Workspace struct {
	gnn  gnn.Scratch
	topk []gnn.Result

	tp tilePlanning

	orderings []tileOrdering
	exhausted []bool
	dirty     []bool

	// net is the registered network backend's scratch slot (see
	// NetScratch), whose concrete type core does not know.
	net any
}

// NewWorkspace returns an empty workspace. Long-lived computation loops
// (one goroutine, many plans) should construct one and reuse it.
func NewWorkspace() *Workspace { return new(Workspace) }

var wsPool = sync.Pool{New: func() any { return new(Workspace) }}

// GetWorkspace borrows a workspace from the package pool. Pair with
// PutWorkspace. The pooled path is what the engine's synchronous update
// path uses, so occasional callers share warmed-up scratch without
// owning one.
func GetWorkspace() *Workspace { return wsPool.Get().(*Workspace) }

// PutWorkspace returns ws to the package pool. The caller must not use
// ws, nor any Plan aliasing it (none: plans are exported by copy), after
// the call.
func PutWorkspace(ws *Workspace) { wsPool.Put(ws) }

// NetScratch exposes the workspace's backend-owned scratch slot. The
// road-network backend stores its reusable planning state (snapped
// positions, the per-POI aggregate vector) here, so network plans reuse
// their scratch the way the Euclidean planners reuse the typed fields —
// without core depending on the backend's types. The slot follows the
// workspace's lifecycle: per goroutine, reused across plans, recycled
// through the pool.
func (ws *Workspace) NetScratch() *any { return &ws.net }

// grown returns s with length exactly m, preserving capacity (and, for
// indices below the old capacity, contents — callers overwrite or clear
// what they read). This is the one idiom for sizing workspace scratch:
// no allocation once the slice has grown to its working size.
func grown[T any](s []T, m int) []T {
	if cap(s) < m {
		s = append(s[:cap(s)], make([]T, m-cap(s))...)
	}
	return s[:m]
}

// resizeOrderings returns the workspace's ordering slice sized to m; the
// caller resets every element before use.
func (ws *Workspace) resizeOrderings(m int) []tileOrdering {
	ws.orderings = grown(ws.orderings, m)
	return ws.orderings
}

// resizeExhausted returns the workspace's exhausted-flag slice sized to m
// and cleared.
func (ws *Workspace) resizeExhausted(m int) []bool {
	ws.exhausted = grown(ws.exhausted, m)
	for i := range ws.exhausted {
		ws.exhausted[i] = false
	}
	return ws.exhausted
}

// resizeDirty returns the workspace's dirty-user mask sized to m; the
// incremental planner writes every element before reading.
func (ws *Workspace) resizeDirty(m int) []bool {
	ws.dirty = grown(ws.dirty, m)
	return ws.dirty
}

// exportTiles deep-copies the scratch regions into exactly two fresh
// allocations — one SafeRegion header slice and one geom.Rect arena
// shared by all regions — so the returned plan does not alias workspace
// memory and is safe to retain indefinitely.
func exportTiles(scratch []SafeRegion) []SafeRegion {
	total := 0
	for i := range scratch {
		total += len(scratch[i].Tiles)
	}
	arena := make([]geom.Rect, 0, total)
	out := make([]SafeRegion, len(scratch))
	for i := range scratch {
		start := len(arena)
		arena = append(arena, scratch[i].Tiles...)
		out[i] = SafeRegion{Kind: KindTiles, Tiles: arena[start:len(arena):len(arena)]}
	}
	return out
}
