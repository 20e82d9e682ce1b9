package engine

import (
	"math/rand"
	"sync"
	"testing"

	"mpn/internal/core"
	"mpn/internal/geom"
)

// TestEngineChurnConcurrent is the system-level handoff fence: POI
// mutation batches applied through core.Planner.ApplyPOIs while engine
// workers and synchronous updaters replan concurrently through the
// incremental adapters. Run under -race this exercises the whole
// snapshot pipeline (RCU publish, shadow replay, incremental version
// invalidation) end to end; the in-test assertions
// check that every group converges on a plan computed against the final
// published index version.
func TestEngineChurnConcurrent(t *testing.T) {
	pl := testPlanner(t, 1200, 21)
	e := NewWS(PlannerKindWSFunc(pl, core.KindTiles, nil), Options{
		Shards: 4, Workers: 2, QueueDepth: 64,
		Replan: PlannerKindIncFunc(pl, core.KindTiles, nil),
	})
	defer e.Close()

	rng := rand.New(rand.NewSource(22))
	const ngroups = 12
	ids := make([]GroupID, ngroups)
	groups := make([][]geom.Point, ngroups)
	for g := range ids {
		c := geom.Pt(0.2+0.6*rng.Float64(), 0.2+0.6*rng.Float64())
		groups[g] = []geom.Point{
			geom.Pt(c.X, c.Y),
			geom.Pt(c.X+0.01, c.Y-0.008),
			geom.Pt(c.X-0.009, c.Y+0.011),
		}
		id, err := e.Register(groups[g], nil)
		if err != nil {
			t.Fatal(err)
		}
		ids[g] = id
	}

	rounds := 30
	if testing.Short() {
		rounds = 8
	}

	var wg sync.WaitGroup
	// Two submitter streams: one synchronous (Update), one through the
	// worker queues (Submit), over disjoint group halves so per-group
	// submissions stay ordered.
	for s := 0; s < 2; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(100 + s)))
			users := make([]geom.Point, 3)
			for r := 0; r < rounds; r++ {
				for g := s; g < ngroups; g += 2 {
					for i, u := range groups[g] {
						users[i] = geom.Pt(u.X+0.02*(rng.Float64()-0.5), u.Y+0.02*(rng.Float64()-0.5))
					}
					var err error
					if s == 0 {
						err = e.Update(ids[g], users, nil)
					} else {
						err = e.Submit(ids[g], users, nil)
					}
					if err != nil {
						t.Errorf("submit group %d: %v", g, err)
						return
					}
				}
			}
		}(s)
	}
	// One writer stream of mutation batches.
	wg.Add(1)
	go func() {
		defer wg.Done()
		rng := rand.New(rand.NewSource(200))
		var inserted []int
		for r := 0; r < 3*rounds; r++ {
			ins := []geom.Point{geom.Pt(rng.Float64(), rng.Float64())}
			var del []int
			if len(inserted) > 4 && rng.Intn(2) == 0 {
				i := rng.Intn(len(inserted))
				del = append(del, inserted[i])
				inserted[i] = inserted[len(inserted)-1]
				inserted = inserted[:len(inserted)-1]
			}
			ids, err := pl.ApplyPOIs(ins, del)
			if err != nil {
				t.Errorf("ApplyPOIs: %v", err)
				return
			}
			inserted = append(inserted, ids...)
		}
	}()
	wg.Wait()
	e.quiesce(t)

	// With the churn finished, one more update per group must land every
	// group on the final published version with covering regions (a plan
	// retained from an older version is replanned, never kept).
	final := pl.Tree().Version()
	for g, id := range ids {
		if err := e.Update(id, groups[g], nil); err != nil {
			t.Fatalf("final update group %d: %v", g, err)
		}
		if v := e.Stats(id).IndexVersion; v != final {
			t.Fatalf("group %d: IndexVersion %d, want final %d", g, v, final)
		}
		regions := e.Regions(id)
		for i, u := range groups[g] {
			if !regions[i].Contains(u) {
				t.Fatalf("group %d: region %d misses its user", g, i)
			}
		}
	}
}
