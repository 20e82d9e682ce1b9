package core

import (
	"errors"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"mpn/internal/geom"
	"mpn/internal/gnn"
	"mpn/internal/nbrcache"
)

// stubNet is a NetBackend that is never asked to plan.
type stubNet struct{}

func (stubNet) PlanNet(*Workspace, PlanRequest) (Plan, IncOutcome, error) {
	return Plan{}, IncFull, nil
}

// TestNetBackendFixesPOIs: once a network backend is registered, every
// mutation path refuses with ErrFixedPOIs and changes nothing — the
// backend plans from the POI set it was built with. InsertPOI, whose
// only failure used to be unreachable, returns -1 instead of panicking.
func TestNetBackendFixesPOIs(t *testing.T) {
	pl := mustPlanner(t, randomPoints(8, rand.New(rand.NewSource(5))), tileOpts(nil))
	pl.RegisterNetBackend(stubNet{})
	if ids, err := pl.ApplyPOIs([]geom.Point{geom.Pt(0.5, 0.5)}, []int{0}); !errors.Is(err, ErrFixedPOIs) || ids != nil {
		t.Fatalf("ApplyPOIs = %v, %v; want ErrFixedPOIs", ids, err)
	}
	if _, err := pl.ApplyPOIs(nil, nil); !errors.Is(err, ErrFixedPOIs) {
		t.Fatalf("empty batch: err %v, want ErrFixedPOIs", err)
	}
	if id := pl.InsertPOI(geom.Pt(0.5, 0.5)); id != -1 {
		t.Fatalf("InsertPOI = %d, want -1", id)
	}
	if pl.DeletePOI(0) {
		t.Fatal("DeletePOI accepted")
	}
	snap := pl.Acquire()
	defer snap.Release()
	if snap.Version() != 0 || snap.Live() != 8 {
		t.Fatalf("refused mutations changed state: version %d, %d live", snap.Version(), snap.Live())
	}
}

// TestDeletePOISemantics pins down the mutation API's edge behavior:
// range checks, double deletes, the never-empty guard, batch
// validation, and version accounting.
func TestDeletePOISemantics(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	pts := randomPoints(5, rng)
	pl := mustPlanner(t, pts, tileOpts(nil))

	if pl.DeletePOI(-1) || pl.DeletePOI(5) {
		t.Fatal("out-of-range delete reported success")
	}
	if !pl.DeletePOI(2) {
		t.Fatal("valid delete failed")
	}
	if pl.NumPOIs() != 4 {
		t.Fatalf("NumPOIs=%d after one delete of five", pl.NumPOIs())
	}
	if pl.DeletePOI(2) {
		t.Fatal("double delete reported success")
	}

	// Batch validation failures must apply nothing — not even the valid
	// prefix of the batch.
	snap := pl.Acquire()
	v, n := snap.Version(), snap.Tree().Len()
	snap.Release()
	if _, err := pl.ApplyPOIs(nil, []int{1, 1}); err == nil {
		t.Fatal("duplicate delete ids accepted")
	}
	if _, err := pl.ApplyPOIs([]geom.Point{geom.Pt(0.5, 0.5)}, []int{99}); err == nil {
		t.Fatal("batch with an unknown delete id accepted")
	}
	if _, err := pl.ApplyPOIs([]geom.Point{geom.Pt(0.5, 0.5)}, []int{2}); err == nil {
		t.Fatal("batch deleting an already-deleted id accepted")
	}
	if ids, err := pl.ApplyPOIs(nil, nil); ids != nil || err != nil {
		t.Fatalf("empty batch: ids=%v err=%v", ids, err)
	}
	snap = pl.Acquire()
	if snap.Version() != v || snap.Tree().Len() != n {
		t.Fatalf("rejected batches changed state: version %d->%d len %d->%d",
			v, snap.Version(), n, snap.Tree().Len())
	}
	snap.Release()

	// Drain to one live POI; the guard must hold it.
	for _, id := range []int{0, 1, 3} {
		if !pl.DeletePOI(id) {
			t.Fatalf("delete of %d failed", id)
		}
	}
	if pl.NumPOIs() != 1 {
		t.Fatalf("NumPOIs=%d, want 1", pl.NumPOIs())
	}
	if pl.DeletePOI(4) {
		t.Fatal("deleted the last live POI")
	}
	// A batch that nets out non-empty is fine even when it deletes the
	// last survivor.
	ids, err := pl.ApplyPOIs([]geom.Point{geom.Pt(0.25, 0.75)}, []int{4})
	if err != nil || len(ids) != 1 {
		t.Fatalf("replace batch: ids=%v err=%v", ids, err)
	}
	if pl.NumPOIs() != 1 || !tombstoned(pl, 4) {
		t.Fatalf("replace batch not applied: live=%d", pl.NumPOIs())
	}

	// Version advances by the number of applied operations.
	snap = pl.Acquire()
	defer snap.Release()
	if want := uint64(1 + 3 + 2); snap.Version() != want {
		t.Fatalf("version=%d, want %d", snap.Version(), want)
	}
	if snap.Version() != snap.Tree().Version() {
		t.Fatalf("snapshot/tree version skew: %d vs %d", snap.Version(), snap.Tree().Version())
	}
}

// tombstoned reports whether id is deleted in the currently published
// snapshot.
func tombstoned(pl *Planner, id int) bool {
	s := pl.Acquire()
	defer s.Release()
	return s.Deleted(id)
}

// TestSnapshotPinnedAcrossMutation: a reader holding a pinned snapshot
// must keep seeing the pre-mutation index while a concurrent publish
// installs the new one. (Only one publish happens while the pin is
// held: the writer waits for a retired snapshot's readers, so a pin may
// lag the published state by at most one generation.)
func TestSnapshotPinnedAcrossMutation(t *testing.T) {
	rng := rand.New(rand.NewSource(62))
	pts := randomPoints(100, rng)
	pl := mustPlanner(t, pts, tileOpts(nil))

	old := pl.Acquire()
	p := geom.Pt(0.111, 0.222)
	id := pl.InsertPOI(p)
	fresh := pl.Acquire()

	if old.Version() != 0 || fresh.Version() != 1 {
		t.Fatalf("versions old=%d fresh=%d", old.Version(), fresh.Version())
	}
	if old.Tree().Len() != 100 || fresh.Tree().Len() != 101 {
		t.Fatalf("lens old=%d fresh=%d", old.Tree().Len(), fresh.Tree().Len())
	}
	if len(old.Points()) != 100 {
		t.Fatalf("pinned point table grew: %d", len(old.Points()))
	}
	if fresh.Points()[id] != p {
		t.Fatalf("fresh table missing the insert: %v", fresh.Points()[id])
	}
	old.Release()
	fresh.Release()

	// With the pin gone the writer can keep cycling buffers.
	if !pl.DeletePOI(id) {
		t.Fatal("delete of the fresh insert failed")
	}
	if pl.NumPOIs() != 100 {
		t.Fatalf("NumPOIs=%d", pl.NumPOIs())
	}
}

// churnStep applies one random mutation batch: a couple of inserts
// (near the action or far from it) and up to two deletes of live ids,
// keeping the live count comfortably above the top-k the planners need.
func churnStep(t *testing.T, pl *Planner, rng *rand.Rand, live *[]int) []geom.Point {
	t.Helper()
	var ins []geom.Point
	for n := rng.Intn(3); n > 0; n-- {
		if rng.Intn(2) == 0 {
			ins = append(ins, geom.Pt(0.4+0.2*rng.Float64(), 0.4+0.2*rng.Float64()))
		} else {
			ins = append(ins, geom.Pt(rng.Float64(), rng.Float64()))
		}
	}
	var del []int
	for n := rng.Intn(3); n > 0 && len(*live)-len(del) > 10; n-- {
		i := rng.Intn(len(*live))
		del = append(del, (*live)[i])
		(*live)[i] = (*live)[len(*live)-1]
		*live = (*live)[:len(*live)-1]
	}
	ids, err := pl.ApplyPOIs(ins, del)
	if err != nil {
		t.Fatalf("ApplyPOIs: %v", err)
	}
	*live = append(*live, ids...)
	return ins
}

// TestChurnDifferentialFence is the correctness fence of live POI
// churn: after any interleaving of inserts and deletes, every planner
// variant — {max, sum} × {tile, circle} × {cached, uncached} — must
// produce plans identical (up to the id renumbering of a rebuilt
// planner) to a freshly bulk-loaded planner over the surviving POI set.
// Deletions must leave no trace: not in the index, not in candidate
// collection, not through stale cache entries.
func TestChurnDifferentialFence(t *testing.T) {
	type cfg struct {
		name   string
		circle bool
		cached bool
		mod    func(*Options)
	}
	var cfgs []cfg
	for _, agg := range []struct {
		name string
		mod  func(*Options)
	}{
		{"max", nil},
		{"sum", func(o *Options) { o.Aggregate = gnn.Sum }},
	} {
		for _, shape := range []struct {
			name   string
			circle bool
		}{{"tile", false}, {"circle", true}} {
			for _, cached := range []bool{false, true} {
				name := agg.name + "/" + shape.name
				if cached {
					name += "/cached"
				}
				cfgs = append(cfgs, cfg{name: name, circle: shape.circle, cached: cached, mod: agg.mod})
			}
		}
	}

	for _, c := range cfgs {
		c := c
		t.Run(c.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(63))
			pts := randomPoints(400, rng)
			opts := tileOpts(c.mod)
			opts.TileLimit = 6
			pl := mustPlanner(t, pts, opts)
			var cache *nbrcache.Cache
			if c.cached {
				cache = nbrcache.New(nbrcache.Config{})
				pl.ShareCache(cache)
			}

			live := make([]int, len(pts))
			for i := range live {
				live[i] = i
			}
			users := []geom.Point{geom.Pt(0.5, 0.5), geom.Pt(0.52, 0.485), geom.Pt(0.49, 0.51)}
			ws, wsRef := NewWorkspace(), NewWorkspace()

			for step := 0; step < 24; step++ {
				churnStep(t, pl, rng, &live)
				incStep(step, users, rng)

				var plan, ref Plan
				var err error
				if c.circle {
					if c.cached {
						plan, err = planFull(pl, ws, PlanRequest{Kind: KindCircle, Users: users, Cache: cache})
					} else {
						plan, err = planFull(pl, ws, PlanRequest{Kind: KindCircle, Users: users})
					}
				} else {
					if c.cached {
						plan, err = planFull(pl, ws, PlanRequest{Kind: KindTiles, Users: users, Cache: cache})
					} else {
						plan, err = planFull(pl, ws, PlanRequest{Kind: KindTiles, Users: users})
					}
				}
				if err != nil {
					t.Fatalf("step %d: %v", step, err)
				}

				// Fresh planner over the surviving set, with the id remap.
				snap := pl.Acquire()
				surv := make([]geom.Point, 0, snap.Live())
				remap := make(map[int]int, snap.Live())
				for id, p := range snap.Points() {
					if !snap.Deleted(id) {
						remap[id] = len(surv)
						surv = append(surv, p)
					}
				}
				version := snap.Version()
				snap.Release()
				fresh := mustPlanner(t, surv, opts)
				if c.circle {
					ref, err = planFull(fresh, wsRef, PlanRequest{Kind: KindCircle, Users: users})
				} else {
					ref, err = planFull(fresh, wsRef, PlanRequest{Kind: KindTiles, Users: users})
				}
				if err != nil {
					t.Fatalf("step %d ref: %v", step, err)
				}

				if plan.Stats.IndexVersion != version {
					t.Fatalf("step %d: plan ran against version %d, published %d",
						step, plan.Stats.IndexVersion, version)
				}
				if plan.Best.Item.P != ref.Best.Item.P || plan.Best.Dist != ref.Best.Dist {
					t.Fatalf("step %d: meeting point diverged: churned %+v fresh %+v",
						step, plan.Best, ref.Best)
				}
				if remap[plan.Best.Item.ID] != ref.Best.Item.ID {
					t.Fatalf("step %d: optimum id %d remaps to %d, fresh chose %d",
						step, plan.Best.Item.ID, remap[plan.Best.Item.ID], ref.Best.Item.ID)
				}
				if !reflect.DeepEqual(plan.Regions, ref.Regions) {
					t.Fatalf("step %d: regions diverged from the fresh planner", step)
				}
			}
		})
	}
}

// TestMutationForcesFullReplan: any published mutation — even one that
// leaves the optimum untouched — must invalidate retained incremental
// state exactly once. The retained tiles were verified against a
// candidate set the mutation may have changed, so reusing them would be
// unsound; after the one forced full replan the stream returns to kept
// outcomes.
func TestMutationForcesFullReplan(t *testing.T) {
	rng := rand.New(rand.NewSource(64))
	pts := randomPoints(300, rng)
	pl := mustPlanner(t, pts, tileOpts(nil))
	users := []geom.Point{geom.Pt(0.5, 0.5), geom.Pt(0.52, 0.49)}
	ws := NewWorkspace()

	expect := func(label string, got, want IncOutcome, err error) {
		t.Helper()
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		if got != want {
			t.Fatalf("%s: outcome %v, want %v", label, got, want)
		}
	}

	var st PlanState
	_, out, err := pl.Plan(ws, PlanRequest{Kind: KindTiles, Users: users, State: &st})
	expect("tile seed", out, IncFull, err)
	_, out, err = pl.Plan(ws, PlanRequest{Kind: KindTiles, Users: users, State: &st})
	expect("tile steady", out, IncKept, err)

	// A far-away insert: the optimum and every region stay, but the
	// retained plan's certificate is void.
	id := pl.InsertPOI(geom.Pt(0.97, 0.03))
	_, out, err = pl.Plan(ws, PlanRequest{Kind: KindTiles, Users: users, State: &st})
	expect("tile post-insert", out, IncFull, err)
	_, out, err = pl.Plan(ws, PlanRequest{Kind: KindTiles, Users: users, State: &st})
	expect("tile recovered", out, IncKept, err)

	if !pl.DeletePOI(id) {
		t.Fatal("delete failed")
	}
	_, out, err = pl.Plan(ws, PlanRequest{Kind: KindTiles, Users: users, State: &st})
	expect("tile post-delete", out, IncFull, err)
	_, out, err = pl.Plan(ws, PlanRequest{Kind: KindTiles, Users: users, State: &st})
	expect("tile recovered again", out, IncKept, err)

	var stc PlanState
	_, out, err = pl.Plan(ws, PlanRequest{Kind: KindCircle, Users: users, State: &stc})
	expect("circle seed", out, IncFull, err)
	_, out, err = pl.Plan(ws, PlanRequest{Kind: KindCircle, Users: users, State: &stc})
	expect("circle steady", out, IncKept, err)
	pl.InsertPOI(geom.Pt(0.03, 0.97))
	_, out, err = pl.Plan(ws, PlanRequest{Kind: KindCircle, Users: users, State: &stc})
	expect("circle post-insert", out, IncFull, err)
	_, out, err = pl.Plan(ws, PlanRequest{Kind: KindCircle, Users: users, State: &stc})
	expect("circle recovered", out, IncKept, err)
}

// TestChurnConcurrentPlanning is the race fence of the RCU index: one
// writer stream of batched mutations against concurrent planners of
// every flavor. Run under -race this exercises the snapshot handoff;
// the in-test assertions check what a reader can see — a coherent
// (tree, version) pair, plans against monotonically advancing versions,
// and regions that always cover their users.
func TestChurnConcurrentPlanning(t *testing.T) {
	rng := rand.New(rand.NewSource(65))
	pts := randomPoints(1500, rng)
	opts := tileOpts(nil)
	opts.TileLimit = 4
	pl := mustPlanner(t, pts, opts)
	cache := nbrcache.New(nbrcache.Config{})
	pl.ShareCache(cache)

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(100 + w)))
			ws := NewWorkspace()
			var st PlanState
			var lastV uint64
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				users := []geom.Point{
					geom.Pt(0.45+0.1*rng.Float64(), 0.45+0.1*rng.Float64()),
					geom.Pt(0.45+0.1*rng.Float64(), 0.45+0.1*rng.Float64()),
				}
				var plan Plan
				var err error
				switch w {
				case 0:
					plan, err = planFull(pl, ws, PlanRequest{Kind: KindTiles, Users: users})
				case 1:
					plan, err = planFull(pl, ws, PlanRequest{Kind: KindTiles, Users: users, Cache: cache})
				case 2:
					plan, err = planFull(pl, ws, PlanRequest{Kind: KindCircle, Users: users, Cache: cache})
				default:
					plan, _, err = pl.Plan(ws, PlanRequest{Kind: KindTiles, Users: users, Cache: cache, State: &st})
				}
				if err != nil {
					t.Errorf("reader %d: %v", w, err)
					return
				}
				if plan.Stats.IndexVersion < lastV {
					t.Errorf("reader %d: version went backwards %d -> %d",
						w, lastV, plan.Stats.IndexVersion)
					return
				}
				lastV = plan.Stats.IndexVersion
				for j, u := range users {
					if !plan.Regions[j].Contains(u) {
						t.Errorf("reader %d: region %d misses its user", w, j)
						return
					}
				}
				if i%8 == 0 {
					snap := pl.Acquire()
					if snap.Version() != snap.Tree().Version() {
						t.Errorf("reader %d: snapshot/tree version skew %d vs %d",
							w, snap.Version(), snap.Tree().Version())
					}
					snap.Release()
				}
			}
		}(w)
	}

	live := make([]int, len(pts))
	for i := range live {
		live[i] = i
	}
	batches := 60
	if testing.Short() {
		batches = 15
	}
	for i := 0; i < batches; i++ {
		churnStep(t, pl, rng, &live)
	}
	close(stop)
	wg.Wait()

	snap := pl.Acquire()
	defer snap.Release()
	if snap.Live() != len(live) || snap.Tree().Len() != len(live) {
		t.Fatalf("final live=%d tree=%d, writer tracked %d",
			snap.Live(), snap.Tree().Len(), len(live))
	}
}
