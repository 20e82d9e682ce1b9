package core

import (
	"math/rand"
	"testing"

	"mpn/internal/geom"
	"mpn/internal/nbrcache"
)

// TestCompactionBoundedMemory is the regression fence of long-session
// id-space compaction: across 10k churn operations on a planner whose
// live set stays near a few hundred points, the published point table
// must stay bounded by twice the live set instead of growing with every
// id ever inserted, external ids must keep their never-reused
// semantics, and every plan must match a freshly bulk-loaded planner
// over the surviving set.
func TestCompactionBoundedMemory(t *testing.T) {
	rng := rand.New(rand.NewSource(91))
	pts := randomPoints(300, rng)
	opts := tileOpts(nil)
	opts.TileLimit = 6
	pl := mustPlanner(t, pts, opts)
	cache := nbrcache.New(nbrcache.Config{})
	pl.ShareCache(cache)

	users := []geom.Point{geom.Pt(0.5, 0.5), geom.Pt(0.52, 0.485)}
	ws, wsRef := NewWorkspace(), NewWorkspace()
	var st PlanState

	live := make([]int, len(pts))
	for i := range live {
		live[i] = i
	}
	totalOps, totalIns := 0, len(pts)
	sawCompaction := false
	var lastVersion uint64

	for step := 0; totalOps < 10000; step++ {
		// One insert and one delete per batch: the live count hovers at
		// 300 while tombstones accrue until compaction fires.
		ins := []geom.Point{geom.Pt(rng.Float64(), rng.Float64())}
		i := rng.Intn(len(live))
		del := []int{live[i]}
		live[i] = live[len(live)-1]
		live = live[:len(live)-1]

		ids, err := pl.ApplyPOIs(ins, del)
		if err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
		if ids[0] != totalIns {
			t.Fatalf("step %d: external id %d, want %d (sequential, never reused)", step, ids[0], totalIns)
		}
		totalIns++
		totalOps += 2
		live = append(live, ids[0])

		// Deleting the already-deleted external id must stay an error
		// forever, across any number of compactions.
		if _, err := pl.ApplyPOIs(nil, del); err == nil {
			t.Fatalf("step %d: re-delete of external id %d accepted", step, del[0])
		}

		snap := pl.Acquire()
		if len(snap.Points()) > 2*snap.Live() {
			snap.Release()
			t.Fatalf("step %d: point table %d for %d live POIs — compaction never fired",
				step, len(pl.Points()), pl.NumPOIs())
		}
		if snap.Version() <= lastVersion {
			snap.Release()
			t.Fatalf("step %d: version did not advance (%d)", step, snap.Version())
		}
		lastVersion = snap.Version()
		if len(snap.Points()) == snap.Live() && snap.Live() == len(live) && step > 0 {
			sawCompaction = true
		}
		snap.Release()

		// Every 250 batches, fence plans (cached and incremental paths
		// included — both must survive the slot remap via the version
		// gate) against a fresh planner over the surviving set.
		if step%250 != 0 {
			continue
		}
		plan, _, err := pl.Plan(ws, PlanRequest{Kind: KindTiles, Users: users, Cache: cache, State: &st})
		if err != nil {
			t.Fatalf("step %d plan: %v", step, err)
		}
		snap = pl.Acquire()
		surv := make([]geom.Point, 0, snap.Live())
		for slot, p := range snap.Points() {
			if !snap.Deleted(slot) {
				surv = append(surv, p)
			}
		}
		snap.Release()
		fresh := mustPlanner(t, surv, opts)
		ref, err := planFull(fresh, wsRef, PlanRequest{Kind: KindTiles, Users: users})
		if err != nil {
			t.Fatalf("step %d ref: %v", step, err)
		}
		if plan.Best.Item.P != ref.Best.Item.P || plan.Best.Dist != ref.Best.Dist {
			t.Fatalf("step %d: optimum diverged: churned %+v fresh %+v", step, plan.Best, ref.Best)
		}
	}

	if !sawCompaction {
		t.Fatal("10k ops never produced a dense (fully compacted) table")
	}
	if pl.NumPOIs() != len(live) {
		t.Fatalf("live count skew: planner %d, test %d", pl.NumPOIs(), len(live))
	}
}

// TestCompactionSharedTombstones: publishes share the canonical
// tombstone table instead of copying it per batch, and tombstone bits
// are only ever set in a fresh clone — so a reader holding the
// pre-publish snapshot keeps a stable view across the next publish
// (one generation, the documented pin lifetime), whether that publish
// inserts or deletes.
func TestCompactionSharedTombstones(t *testing.T) {
	rng := rand.New(rand.NewSource(92))
	pts := randomPoints(64, rng) // below compactMinTable: no compaction
	pl := mustPlanner(t, pts, tileOpts(nil))

	if !pl.DeletePOI(3) {
		t.Fatal("delete failed")
	}

	// Pin across an insert-only publish: the shared tombstone table must
	// not change under the pinned reader even though the canonical table
	// appended a slot.
	pinned := pl.Acquire()
	if _, err := pl.ApplyPOIs([]geom.Point{geom.Pt(rng.Float64(), rng.Float64())}, nil); err != nil {
		t.Fatal(err)
	}
	if !pinned.Deleted(3) || pinned.Deleted(4) || len(pinned.Points()) != 64 {
		t.Fatalf("pinned snapshot mutated by insert: del3=%v del4=%v len=%d",
			pinned.Deleted(3), pinned.Deleted(4), len(pinned.Points()))
	}
	pinned.Release()

	// Pin across a delete publish: the new tombstone lands in a fresh
	// clone, never in the table the pinned reader shares.
	pinned = pl.Acquire()
	if !pl.DeletePOI(5) {
		t.Fatal("second delete failed")
	}
	if !pinned.Deleted(3) || pinned.Deleted(5) || len(pinned.Points()) != 65 {
		t.Fatalf("pinned snapshot mutated by delete: del3=%v del5=%v len=%d",
			pinned.Deleted(3), pinned.Deleted(5), len(pinned.Points()))
	}
	pinned.Release()

	cur := pl.Acquire()
	defer cur.Release()
	if !cur.Deleted(3) || !cur.Deleted(5) || len(cur.Points()) != 65 {
		t.Fatalf("current snapshot wrong: del3=%v del5=%v len=%d",
			cur.Deleted(3), cur.Deleted(5), len(cur.Points()))
	}
}

// TestOnMutateCapture: the OnMutate hook must see every applied batch
// exactly once, in order, with the original external ids — and must not
// fire for rejected batches. Replaying the captured stream through a
// fresh planner must reproduce the external id assignment.
func TestOnMutateCapture(t *testing.T) {
	rng := rand.New(rand.NewSource(93))
	pts := randomPoints(50, rng)
	pl := mustPlanner(t, pts, tileOpts(nil))

	type batch struct {
		base int
		ins  []geom.Point
		del  []int
	}
	var captured []batch
	pl.OnMutate(func(baseExt int, inserts []geom.Point, deleteIDs []int) {
		captured = append(captured, batch{
			base: baseExt,
			ins:  append([]geom.Point(nil), inserts...),
			del:  append([]int(nil), deleteIDs...),
		})
	})

	if _, err := pl.ApplyPOIs(nil, []int{999}); err == nil {
		t.Fatal("invalid batch accepted")
	}
	if len(captured) != 0 {
		t.Fatal("rejected batch captured")
	}

	ids1, err := pl.ApplyPOIs([]geom.Point{geom.Pt(0.1, 0.9), geom.Pt(0.9, 0.1)}, []int{7})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := pl.ApplyPOIs(nil, []int{ids1[0]}); err != nil {
		t.Fatal(err)
	}

	if len(captured) != 2 {
		t.Fatalf("captured %d batches, want 2", len(captured))
	}
	if captured[0].base != 50 || captured[1].base != 52 {
		t.Fatalf("bases: %d, %d", captured[0].base, captured[1].base)
	}
	if captured[1].del[0] != ids1[0] {
		t.Fatalf("captured delete id %d, want %d", captured[1].del[0], ids1[0])
	}

	// Replay onto a fresh planner: same external ids, same live set.
	fresh := mustPlanner(t, pts, tileOpts(nil))
	next := 50
	for _, b := range captured {
		ids, err := fresh.ApplyPOIs(b.ins, b.del)
		if err != nil {
			t.Fatalf("replay: %v", err)
		}
		for i, id := range ids {
			if id != next+i {
				t.Fatalf("replay id %d, want %d", id, next+i)
			}
		}
		next += len(ids)
	}
	if fresh.NumPOIs() != pl.NumPOIs() {
		t.Fatalf("replayed live %d, original %d", fresh.NumPOIs(), pl.NumPOIs())
	}
}
