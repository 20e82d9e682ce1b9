package core

import (
	"fmt"
	"runtime"
	"sync/atomic"
	"time"

	"mpn/internal/geom"
	"mpn/internal/rtree"
)

// Snapshot is one immutable published state of the planner's POI set: an
// R-tree, the id-indexed point table it refers into, the tombstone set,
// and the mutation version the pair corresponds to. Readers pin a
// snapshot with Planner.Acquire, traverse it freely — nothing it
// references is ever mutated while pinned — and Release it when done.
// The planning entry points do this internally; Acquire exists for
// callers that need a coherent multi-read view (tests, diagnostics,
// exporters).
type Snapshot struct {
	tree *rtree.Tree
	// points is id-indexed: tree item ids index it directly. Slots of
	// deleted POIs retain their last location (ids are never reused), so
	// a tombstoned slot is stale data, not garbage.
	points  []geom.Point
	deleted []bool // nil when the snapshot holds no tombstones
	live    int
	version uint64

	// refs counts readers currently pinning the snapshot. The writer
	// recycles a retired snapshot's tree as its next shadow only after
	// refs drains to zero.
	refs atomic.Int64

	// churn counts mutations applied to tree since its last STR repack;
	// writer-owned bookkeeping for the Rebuild load-balance heuristic.
	churn int
}

// Tree returns the snapshot's R-tree. Valid until Release.
func (s *Snapshot) Tree() *rtree.Tree { return s.tree }

// Points returns the snapshot's id-indexed point table; slots of deleted
// POIs (see Deleted) hold their last location. Valid until Release.
func (s *Snapshot) Points() []geom.Point { return s.points }

// Deleted reports whether the table slot id is tombstoned in this
// snapshot. Bounds-checked: tombstone tables are shared across
// publishes (see ApplyPOIs), so a snapshot's table may be shorter than
// its point table — absent slots are live.
func (s *Snapshot) Deleted(id int) bool {
	return id >= 0 && id < len(s.deleted) && s.deleted[id]
}

// Live returns the number of POIs the snapshot's index holds.
func (s *Snapshot) Live() int { return s.live }

// Version returns the snapshot's mutation version — always equal to its
// tree's version, by the swap protocol.
func (s *Snapshot) Version() uint64 { return s.version }

// Release unpins the snapshot. The caller must not touch the snapshot,
// its tree, or its point table afterwards.
func (s *Snapshot) Release() { s.refs.Add(-1) }

// Acquire pins and returns the current snapshot. The load-increment-
// recheck loop closes the publication race: if the writer swapped the
// pointer between the load and the increment, the increment landed on a
// retired snapshot whose tree the writer may be about to recycle, so the
// reader backs off and pins the fresh one instead. (The writer reads
// refs only after its swap; Go's atomics are sequentially consistent, so
// an increment that precedes a successful re-check is visible to every
// later refs read.)
func (pl *Planner) Acquire() *Snapshot {
	for {
		s := pl.snap.Load()
		s.refs.Add(1)
		if pl.snap.Load() == s {
			return s
		}
		s.refs.Add(-1)
	}
}

// mutation is one element of a publish batch, replayed onto the lagging
// buffer tree at the next publish.
type mutation struct {
	insert bool
	id     int
	p      geom.Point
}

// shadowState is the writer's lagging buffer: the tree retired by the
// previous publish, the batch that publish applied (which this tree has
// not seen yet), and the retired snapshot whose readers must drain
// before the tree may be touched.
type shadowState struct {
	tree    *rtree.Tree
	pending []mutation
	owner   *Snapshot // nil for a freshly built shadow
	churn   int       // mutations since tree's last repack
}

// InsertPOI appends one point to the data set and publishes the change,
// returning the new POI's id. It is a one-element ApplyPOIs batch: safe
// to call concurrently with planning, but each call pays a full snapshot
// publication — batch through ApplyPOIs when inserting many. It returns
// -1, and changes nothing, on a planner whose POI set is fixed (see
// ErrFixedPOIs).
func (pl *Planner) InsertPOI(p geom.Point) int {
	ids, err := pl.ApplyPOIs([]geom.Point{p}, nil)
	if err != nil {
		return -1
	}
	return ids[0]
}

// DeletePOI removes the POI with the given id from the data set and
// publishes the change. It reports false — and changes nothing — when id
// is out of range, already deleted, or the last live POI (a planner's
// data set may never become empty; see ErrNoPOIs), or when the POI set
// is fixed (see ErrFixedPOIs).
func (pl *Planner) DeletePOI(id int) bool {
	_, err := pl.ApplyPOIs(nil, []int{id})
	return err == nil
}

// compactMinTable is the point-table size below which id-space
// compaction never triggers: tiny data sets keep the identity mapping
// between external POI ids and table slots for their whole life, which
// the API's edge-semantics tests pin.
const compactMinTable = 256

// ApplyPOIs applies one batched mutation — inserts appended to the data
// set, deleteIDs tombstoned and removed from the index — and publishes
// the result as a single new snapshot, returning the inserted points'
// external ids. External ids are assigned sequentially and never
// reused, for the planner's whole life, even across internal id-space
// compactions (see below). The whole batch becomes visible atomically:
// no reader ever observes a prefix of it, and a snapshot's (tree,
// version) pair is always internally consistent.
//
// ApplyPOIs returns an error, and applies nothing, when a delete id is
// out of range, already deleted, repeated within the batch, or when the
// batch would leave the data set empty — and ErrFixedPOIs, for any
// batch, once a network backend is registered.
//
// Concurrency: safe to call concurrently with planning and with itself
// (writers serialize on an internal lock; readers are never blocked).
// The writer mutates a shadow copy of the index — the tree retired two
// publishes ago, after its last readers drain — and publishes it with
// one atomic pointer swap.
//
// Memory: tombstoned slots normally live for the planner's life, but
// once tombstones outnumber live points (and the table is at least
// compactMinTable slots) the batch ends in an id-space compaction: a
// fresh slot table holding only live points is published in one epoch,
// an external-id→slot indirection keeps every previously returned id
// valid. Point-table memory is therefore bounded by twice the live set;
// the indirection itself grows 4 bytes per id ever inserted — the
// irreducible cost of the ids-never-reused contract.
func (pl *Planner) ApplyPOIs(inserts []geom.Point, deleteIDs []int) ([]int, error) {
	if pl.netBackend != nil {
		return nil, ErrFixedPOIs
	}
	pl.mu.Lock()
	defer pl.mu.Unlock()

	// Validate the whole batch against the canonical state before
	// touching anything.
	cur := pl.snap.Load()
	if cur.live+len(inserts)-len(deleteIDs) <= 0 {
		return nil, fmt.Errorf("core: mutation would empty the POI set: %w", ErrNoPOIs)
	}
	if len(deleteIDs) > 1 {
		seen := make(map[int]struct{}, len(deleteIDs))
		for _, id := range deleteIDs {
			if _, dup := seen[id]; dup {
				return nil, fmt.Errorf("core: duplicate delete of POI %d in one batch", id)
			}
			seen[id] = struct{}{}
		}
	}
	var delSlots []int
	if len(deleteIDs) > 0 {
		delSlots = make([]int, len(deleteIDs))
		for i, id := range deleteIDs {
			slot, err := pl.slotOfLocked(id)
			if err != nil {
				return nil, err
			}
			delSlots[i] = slot
		}
	}
	if len(inserts) == 0 && len(deleteIDs) == 0 {
		return nil, nil
	}
	baseExt := pl.nextExt

	sh := pl.shadowLocked(cur)

	// Wait for the shadow tree's last readers — pinned to the snapshot
	// retired by the previous publish — to drain. New readers acquire the
	// currently published snapshot, so the count is strictly decreasing.
	if sh.owner != nil {
		for spin := 0; sh.owner.refs.Load() != 0; spin++ {
			if spin < 100 {
				runtime.Gosched()
			} else {
				time.Sleep(20 * time.Microsecond)
			}
		}
		sh.owner = nil
	}

	// Catch the shadow up: replay the previous publish's batch, which the
	// published tree has and this one has not.
	for _, m := range sh.pending {
		if m.insert {
			sh.tree.Insert(rtree.Item{P: m.p, ID: m.id})
		} else {
			sh.tree.Delete(rtree.Item{P: m.p, ID: m.id})
		}
	}
	sh.churn += len(sh.pending)
	sh.pending = nil

	// Apply the new batch to the shadow tree and the canonical tables.
	ops := make([]mutation, 0, len(inserts)+len(deleteIDs))
	var ids []int
	if len(inserts) > 0 {
		ids = make([]int, len(inserts))
	}
	for i, p := range inserts {
		slot := len(pl.points)
		pl.points = append(pl.points, p)
		if pl.deleted != nil {
			// Appending may write backing-array capacity beyond a
			// published table's length — never inside it.
			pl.deleted = append(pl.deleted, false)
		}
		sh.tree.Insert(rtree.Item{P: p, ID: slot})
		ops = append(ops, mutation{insert: true, id: slot, p: p})
		ids[i] = pl.nextExt
		if pl.extSlot != nil {
			pl.extSlot = append(pl.extSlot, int32(slot))
			pl.ids = append(pl.ids, pl.nextExt)
		}
		pl.nextExt++
	}
	if len(delSlots) > 0 {
		// Copy-on-delete: tombstone bits are only ever set in a fresh
		// table, so publishes share the canonical table instead of
		// copying it — an insert-only publish costs O(batch), not
		// O(table).
		nd := make([]bool, len(pl.points))
		copy(nd, pl.deleted)
		pl.deleted = nd
	}
	for i, slot := range delSlots {
		pl.deleted[slot] = true
		pl.ndel++
		if pl.extSlot != nil {
			pl.extSlot[deleteIDs[i]] = -1
		}
		p := pl.points[slot]
		sh.tree.Delete(rtree.Item{P: p, ID: slot})
		ops = append(ops, mutation{id: slot, p: p})
	}
	sh.churn += len(ops)

	live := len(pl.points) - pl.ndel
	pl.version += uint64(len(ops))

	if pl.ndel > live && len(pl.points) >= compactMinTable {
		// Id-space compaction: remap every live point into a dense
		// slot table and publish it as this batch's snapshot. The shadow
		// pair is discarded (the next mutation rebuilds it from the
		// compacted canonical state).
		pl.compactLocked(live)
	} else {
		if sh.churn > live {
			// Load balance: churn has touched more entries than the tree
			// holds, so occupancy has degraded toward the underflow floor and
			// MBRs have skewed. Re-pack with the STR bulk loader.
			sh.tree.Rebuild()
			sh.churn = 0
		}

		// Publish: version strictly after the structural change, the swap
		// after both.
		sh.tree.SetVersion(pl.version)
		var del []bool
		if pl.ndel > 0 {
			del = pl.deleted[:len(pl.deleted):len(pl.deleted)]
		}
		pl.snap.Store(&Snapshot{
			tree:    sh.tree,
			points:  pl.points[:len(pl.points):len(pl.points)],
			deleted: del,
			live:    live,
			version: pl.version,
			churn:   sh.churn,
		})

		// The retired tree becomes the next shadow, owing this batch.
		pl.shadow = &shadowState{tree: cur.tree, pending: ops, owner: cur, churn: cur.churn}
	}

	// Capture the applied batch for durability, in application order,
	// with the caller's external ids (see OnMutate).
	if pl.onMutate != nil {
		pl.onMutate(baseExt, inserts, deleteIDs)
	}
	return ids, nil
}

// slotOfLocked resolves an external POI id to its current table slot,
// with the delete-validation errors the API pins. Identity mapping
// until the first compaction. Caller holds pl.mu.
func (pl *Planner) slotOfLocked(id int) (int, error) {
	if pl.extSlot == nil {
		if id < 0 || id >= len(pl.points) {
			return 0, fmt.Errorf("core: delete of unknown POI %d", id)
		}
		if pl.deleted != nil && pl.deleted[id] {
			return 0, fmt.Errorf("core: delete of already-deleted POI %d", id)
		}
		return id, nil
	}
	if id < 0 || id >= len(pl.extSlot) {
		return 0, fmt.Errorf("core: delete of unknown POI %d", id)
	}
	slot := int(pl.extSlot[id])
	if slot < 0 || (pl.deleted != nil && pl.deleted[slot]) {
		return 0, fmt.Errorf("core: delete of already-deleted POI %d", id)
	}
	return slot, nil
}

// compactLocked rebuilds the canonical tables over live points only,
// materializing (on first use) and updating the external-id→slot
// indirection, and publishes the compacted snapshot. Caller holds
// pl.mu; pl.version already reflects the triggering batch.
func (pl *Planner) compactLocked(live int) {
	if pl.extSlot == nil {
		// First compaction: until now external ids equalled slots.
		pl.extSlot = make([]int32, pl.nextExt)
		pl.ids = make([]int, len(pl.points))
		for slot := range pl.points {
			pl.ids[slot] = slot
		}
		for ext := range pl.extSlot {
			pl.extSlot[ext] = -1
		}
	}
	np := make([]geom.Point, 0, live)
	nids := make([]int, 0, live)
	for slot, p := range pl.points {
		if pl.deleted[slot] {
			continue
		}
		ext := pl.ids[slot]
		pl.extSlot[ext] = int32(len(np))
		nids = append(nids, ext)
		np = append(np, p)
	}
	pl.points, pl.ids = np, nids
	pl.deleted, pl.ndel = nil, 0

	items := make([]rtree.Item, len(np))
	for slot, p := range np {
		items[slot] = rtree.Item{P: p, ID: slot}
	}
	t := rtree.Bulk(items, rtree.DefaultMaxEntries)
	t.SetVersion(pl.version)
	pl.snap.Store(&Snapshot{
		tree:    t,
		points:  np[:len(np):len(np)],
		live:    live,
		version: pl.version,
	})
	pl.shadow = nil
}

// shadowLocked returns the writer's shadow buffer, building it on the
// first mutation: until then the planner runs single-buffered and pays
// nothing. Caller holds pl.mu.
func (pl *Planner) shadowLocked(cur *Snapshot) *shadowState {
	if pl.shadow == nil {
		items := make([]rtree.Item, 0, cur.live)
		for id, p := range pl.points {
			if pl.deleted == nil || !pl.deleted[id] {
				items = append(items, rtree.Item{P: p, ID: id})
			}
		}
		t := rtree.Bulk(items, rtree.DefaultMaxEntries)
		t.SetVersion(pl.version)
		pl.shadow = &shadowState{tree: t}
	}
	return pl.shadow
}
