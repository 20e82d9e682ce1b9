package nbrcache

import (
	"reflect"
	"testing"

	"mpn/internal/geom"
	"mpn/internal/gnn"
	"mpn/internal/rtree"
)

// transition simulates one published snapshot-writer mutation batch:
// a new tree holding base plus the inserted points, its version
// continuing the old tree's count, and the Invalidation describing it.
func transition(old *rtree.Tree, base []geom.Point, inserted ...geom.Point) (*rtree.Tree, Invalidation) {
	items := make([]rtree.Item, 0, len(base)+len(inserted))
	for i, p := range base {
		items = append(items, rtree.Item{P: p, ID: i})
	}
	for j, p := range inserted {
		items = append(items, rtree.Item{P: p, ID: len(base) + j})
	}
	nt := rtree.Bulk(items, rtree.DefaultMaxEntries)
	nt.SetVersion(old.Version() + uint64(len(inserted)))
	return nt, Invalidation{
		OldTree: old, OldVersion: old.Version(),
		NewTree: nt, NewVersion: nt.Version(),
		Points: inserted,
	}
}

// TestAdvanceMigratesUnreachedEntries: a mutation outside an entry's
// guarantee radius must not cost the entry — Advance migrates it to the
// new (tree, version) and the next lookup is a certified hit whose
// result still byte-matches the traversal over the new tree.
func TestAdvanceMigratesUnreachedEntries(t *testing.T) {
	tree, pts := buildTree(3000, 7)
	c := New(Config{})
	var cs Scratch
	var gs, gsRef gnn.Scratch
	users := []geom.Point{geom.Pt(0.5, 0.5), geom.Pt(0.503, 0.498)}

	out := c.TopKInto(tree, &gs, &cs, users, gnn.Max, 4, nil)
	if len(out) != 4 {
		t.Fatalf("got %d results", len(out))
	}

	// Insert far from the entry's tile: outside any plausible guarantee
	// radius of a 3000-point neighborhood.
	newTree, inv := transition(tree, pts, geom.Pt(0.95, 0.95))
	c.Advance(inv)
	st := c.Stats()
	if st.ChurnMigrated == 0 || st.ChurnEvicted != 0 {
		t.Fatalf("far mutation: migrated=%d evicted=%d", st.ChurnMigrated, st.ChurnEvicted)
	}

	out = c.TopKInto(newTree, &gs, &cs, users, gnn.Max, 4, out[:0])
	ref := gnn.TopKInto(newTree, &gsRef, users, gnn.Max, 4, nil)
	if !reflect.DeepEqual(out, ref) {
		t.Fatalf("migrated entry served %v want %v", out, ref)
	}
	if st = c.Stats(); st.Hits == 0 || st.Stale != 0 {
		t.Fatalf("migrated entry did not survive the transition: %+v", st)
	}
}

// TestAdvanceEvictsReachedEntries: a mutation inside the guarantee
// radius invalidates the entry's claims, so Advance must evict it; the
// next lookup repopulates and reflects the new POI.
func TestAdvanceEvictsReachedEntries(t *testing.T) {
	tree, pts := buildTree(3000, 8)
	c := New(Config{})
	var cs Scratch
	var gs, gsRef gnn.Scratch
	users := []geom.Point{geom.Pt(0.5, 0.5), geom.Pt(0.503, 0.498)}
	c.TopKInto(tree, &gs, &cs, users, gnn.Max, 4, nil)

	// Land the insert right next to the members: well within the radius,
	// and the new optimum.
	p := geom.Pt(0.5005, 0.4995)
	newTree, inv := transition(tree, pts, p)
	c.Advance(inv)
	st := c.Stats()
	if st.ChurnEvicted == 0 {
		t.Fatalf("reaching mutation did not evict: %+v", st)
	}

	out := c.TopKInto(newTree, &gs, &cs, users, gnn.Max, 4, nil)
	ref := gnn.TopKInto(newTree, &gsRef, users, gnn.Max, 4, nil)
	if !reflect.DeepEqual(out, ref) {
		t.Fatalf("post-eviction lookup %v want %v", out, ref)
	}
	if out[0].Item.P != p {
		t.Fatalf("inserted POI not the new optimum: %+v", out[0])
	}
}

// TestAdvanceEvictsCompleteEntries: an entry caching the whole data set
// asserts no uncached POI exists anywhere, so any insert — however far —
// must evict it.
func TestAdvanceEvictsCompleteEntries(t *testing.T) {
	tree, pts := buildTree(20, 9) // static depth ≥ 24 items: entry is complete
	c := New(Config{})
	var cs Scratch
	var gs gnn.Scratch
	users := []geom.Point{geom.Pt(0.5, 0.5), geom.Pt(0.503, 0.498)}
	c.TopKInto(tree, &gs, &cs, users, gnn.Max, 2, nil)

	_, inv := transition(tree, pts, geom.Pt(0.99, 0.99))
	c.Advance(inv)
	if st := c.Stats(); st.ChurnEvicted == 0 || st.ChurnMigrated != 0 {
		t.Fatalf("complete entry survived an insert: %+v", st)
	}
}

// TestAdvanceStragglerReader: after a migration, a reader still pinned
// to the retired snapshot must get a plain miss — served privately, with
// the migrated entry left in place for current readers.
func TestAdvanceStragglerReader(t *testing.T) {
	tree, pts := buildTree(3000, 10)
	c := New(Config{})
	var cs Scratch
	var gs, gsRef gnn.Scratch
	users := []geom.Point{geom.Pt(0.5, 0.5), geom.Pt(0.503, 0.498)}
	c.TopKInto(tree, &gs, &cs, users, gnn.Max, 4, nil)

	newTree, inv := transition(tree, pts, geom.Pt(0.95, 0.95))
	c.Advance(inv)

	// Straggler: still planning against the retired snapshot. Its result
	// must match the old tree's traversal, not the new one's.
	out := c.TopKInto(tree, &gs, &cs, users, gnn.Max, 4, nil)
	ref := gnn.TopKInto(tree, &gsRef, users, gnn.Max, 4, nil)
	if !reflect.DeepEqual(out, ref) {
		t.Fatalf("straggler lookup %v want %v", out, ref)
	}
	stMid := c.Stats()
	if stMid.Stale == 0 {
		t.Fatalf("straggler not counted as a stale miss: %+v", stMid)
	}

	// The migrated entry must have survived the straggler: a current
	// reader still hits it.
	out = c.TopKInto(newTree, &gs, &cs, users, gnn.Max, 4, out[:0])
	ref = gnn.TopKInto(newTree, &gsRef, users, gnn.Max, 4, ref[:0])
	if !reflect.DeepEqual(out, ref) {
		t.Fatalf("current-reader lookup %v want %v", out, ref)
	}
	if st := c.Stats(); st.Hits <= stMid.Hits {
		t.Fatalf("straggler destroyed the migrated entry: %+v", st)
	}
}

// TestAdaptiveDepthShrinks closes the other half of the depth feedback
// loop: a spread-out group grows the entry, a sustained streak of tight
// certified hits proves the depth is no longer needed, the hint decays
// (DepthShrinks), and the next repopulation lands back at the static
// depth.
func TestAdaptiveDepthShrinks(t *testing.T) {
	tree, _ := buildTree(3000, 5)
	const k = 2
	cfg := Config{TileSize: 1.0 / 64, MaxDepthFactor: 4096}
	staticJ := k*depthFactor + depthSlack

	// Spread cross around the tile holding (0.5, 0.5): rejected at static
	// depth, records a deep hint.
	const d = 0.06
	spread := []geom.Point{
		geom.Pt(0.5+d, 0.5), geom.Pt(0.5-d, 0.5),
		geom.Pt(0.5, 0.5+d), geom.Pt(0.5, 0.5-d),
	}
	// Tight pair whose centroid falls in the same tile as the cross's
	// (both coordinates just above 0.5): certifies against any depth.
	tight := []geom.Point{geom.Pt(0.501, 0.501), geom.Pt(0.503, 0.502)}

	c := New(cfg)
	var cs Scratch
	var gs, gsRef gnn.Scratch
	var out, ref []gnn.Result

	lookupEq := func(users []geom.Point, label string) {
		t.Helper()
		out = c.TopKInto(tree, &gs, &cs, users, gnn.Max, k, out[:0])
		ref = gnn.TopKInto(tree, &gsRef, users, gnn.Max, k, ref[:0])
		if !reflect.DeepEqual(out, ref) {
			t.Fatalf("%s: cached %v != traversal %v", label, out, ref)
		}
	}
	entryLen := func() int {
		ky, _ := c.keyFor(tight, gnn.Max, k)
		st := c.stripeOf(ky)
		st.mu.Lock()
		defer st.mu.Unlock()
		if e := st.table[ky]; e != nil {
			return len(e.items)
		}
		return 0
	}

	// Grow: two spread lookups record the hint, a mutation forces the
	// repopulation that honors it.
	lookupEq(spread, "spread 1")
	lookupEq(spread, "spread 2")
	if st := c.Stats(); st.Hits != 0 {
		t.Skipf("static depth certified the spread group (hits=%d); geometry unsuitable", st.Hits)
	}
	tree.Insert(rtree.Item{P: geom.Pt(0.95, 0.95), ID: tree.Len()})
	lookupEq(spread, "spread regrow")
	if st := c.Stats(); st.DepthGrows == 0 {
		t.Fatalf("entry did not grow (%+v)", st)
	}
	if got := entryLen(); got <= staticJ {
		t.Fatalf("grown entry holds %d items, want > %d", got, staticJ)
	}

	// Streak: tight hits on the deepened entry. Two full shrink windows,
	// since the spread regrow hit above may pollute the first.
	for i := 0; i < 2*shrinkStreak+2; i++ {
		lookupEq(tight, "tight streak")
	}
	st := c.Stats()
	if st.DepthShrinks == 0 {
		t.Fatalf("sustained tight streak never shrank the hint (%+v)", st)
	}

	// Shrink lands: the next repopulation is back at the static depth and
	// still exact.
	grows := st.DepthGrows
	tree.Insert(rtree.Item{P: geom.Pt(0.96, 0.96), ID: tree.Len()})
	lookupEq(tight, "post-shrink repopulation")
	if got := entryLen(); got != staticJ {
		t.Fatalf("post-shrink entry holds %d items, want static %d", got, staticJ)
	}
	if c.Stats().DepthGrows != grows {
		t.Fatalf("post-shrink repopulation grew again (%+v)", c.Stats())
	}
}
