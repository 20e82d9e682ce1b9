package engine

import (
	"math/rand"
	"reflect"
	"testing"

	"mpn/internal/core"
	"mpn/internal/geom"
	"mpn/internal/nbrcache"
)

// TestEngineSharedCacheDifferential drives two engines — one with the
// shared neighborhood cache, one without — through identical update
// streams for several co-located groups and asserts the resulting
// meeting points and regions are byte-identical, while the cache
// actually absorbed traversals (cross-group hits from one cache shared
// by all shards and the synchronous path).
func TestEngineSharedCacheDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(51))
	pts := make([]geom.Point, 2000)
	for i := range pts {
		pts[i] = geom.Pt(rng.Float64(), rng.Float64())
	}
	opts := core.DefaultOptions()
	opts.TileLimit = 5
	opts.Buffer = 10
	pl, err := core.NewPlanner(pts, opts)
	if err != nil {
		t.Fatal(err)
	}
	cache := nbrcache.New(nbrcache.Config{})

	build := func(c *nbrcache.Cache) *Engine {
		return NewWS(PlannerKindWSFunc(pl, core.KindTiles, c), Options{
			Shards: 3, Replan: PlannerKindIncFunc(pl, core.KindTiles, c),
		})
	}
	cachedEng := build(cache)
	defer cachedEng.Close()
	plainEng := build(nil)
	defer plainEng.Close()

	// Eight groups clustered in one hotspot: same centroid tile.
	const G = 8
	groupUsers := make([][]geom.Point, G)
	cachedIDs := make([]GroupID, G)
	plainIDs := make([]GroupID, G)
	for g := 0; g < G; g++ {
		groupUsers[g] = []geom.Point{
			geom.Pt(0.6+0.0008*float64(g), 0.6),
			geom.Pt(0.601, 0.599-0.0008*float64(g)),
			geom.Pt(0.5995, 0.6012),
		}
		if cachedIDs[g], err = cachedEng.Register(groupUsers[g], nil); err != nil {
			t.Fatal(err)
		}
		if plainIDs[g], err = plainEng.Register(groupUsers[g], nil); err != nil {
			t.Fatal(err)
		}
	}

	for step := 0; step < 30; step++ {
		for g := 0; g < G; g++ {
			for i := range groupUsers[g] {
				groupUsers[g][i] = geom.Pt(
					groupUsers[g][i].X+1e-4*(rng.Float64()-0.5),
					groupUsers[g][i].Y+1e-4*(rng.Float64()-0.5),
				)
			}
			if err := cachedEng.Update(cachedIDs[g], groupUsers[g], nil); err != nil {
				t.Fatal(err)
			}
			if err := plainEng.Update(plainIDs[g], groupUsers[g], nil); err != nil {
				t.Fatal(err)
			}
			if cm, pm := cachedEng.Meeting(cachedIDs[g]), plainEng.Meeting(plainIDs[g]); cm != pm {
				t.Fatalf("step %d group %d: meeting %v != %v", step, g, cm, pm)
			}
			if cr, pr := cachedEng.Regions(cachedIDs[g]), plainEng.Regions(plainIDs[g]); !reflect.DeepEqual(cr, pr) {
				t.Fatalf("step %d group %d: regions diverged", step, g)
			}
		}
	}
	st := cache.Stats()
	if st.Hits == 0 {
		t.Fatalf("co-located groups never shared a traversal: %+v", st)
	}
	// The whole run had G co-located groups over one tile: far fewer
	// misses than lookups.
	if st.Misses > st.Hits {
		t.Fatalf("hit rate below half on a fully co-located workload: %+v", st)
	}
}
