package rtree

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"

	"mpn/internal/geom"
)

// refPack is the original STR packer — one heap node and one entries
// slice per node, reflective sort.Slice — kept as the oracle that the
// slab packer must reproduce bit for bit.
func refPack(items []Item, m int) *node {
	level := refPackLeaves(items, m)
	for len(level) > 1 {
		level = refPackNodes(level, m)
	}
	return level[0]
}

// refPackLeaves packs sorted slices of items into leaf nodes.
func refPackLeaves(items []Item, m int) []*node {
	n := len(items)
	leafCount := (n + m - 1) / m
	sliceCount := int(math.Ceil(math.Sqrt(float64(leafCount))))
	sliceSize := sliceCount * m

	sort.Slice(items, func(i, j int) bool { return items[i].P.X < items[j].P.X })

	var leaves []*node
	for start := 0; start < n; start += sliceSize {
		end := start + sliceSize
		if end > n {
			end = n
		}
		sl := items[start:end]
		sort.Slice(sl, func(i, j int) bool { return sl[i].P.Y < sl[j].P.Y })
		for ls := 0; ls < len(sl); ls += m {
			le := ls + m
			if le > len(sl) {
				le = len(sl)
			}
			leaf := &node{leaf: true, entries: make([]entry, 0, le-ls)}
			for _, it := range sl[ls:le] {
				leaf.entries = append(leaf.entries, entry{
					mbr:  geom.Rect{Min: it.P, Max: it.P},
					item: it,
				})
			}
			leaves = append(leaves, leaf)
		}
	}
	return leaves
}

// refPackNodes groups one level of nodes into parents using the same STR
// tiling on node MBR centers.
func refPackNodes(children []*node, m int) []*node {
	type boxed struct {
		n   *node
		mbr geom.Rect
	}
	bs := make([]boxed, len(children))
	for i, c := range children {
		bs[i] = boxed{n: c, mbr: c.mbr()}
	}
	parentCount := (len(bs) + m - 1) / m
	sliceCount := int(math.Ceil(math.Sqrt(float64(parentCount))))
	sliceSize := sliceCount * m

	sort.Slice(bs, func(i, j int) bool {
		return bs[i].mbr.Center().X < bs[j].mbr.Center().X
	})

	var parents []*node
	for start := 0; start < len(bs); start += sliceSize {
		end := start + sliceSize
		if end > len(bs) {
			end = len(bs)
		}
		sl := bs[start:end]
		sort.Slice(sl, func(i, j int) bool {
			return sl[i].mbr.Center().Y < sl[j].mbr.Center().Y
		})
		for ls := 0; ls < len(sl); ls += m {
			le := ls + m
			if le > len(sl) {
				le = len(sl)
			}
			p := &node{leaf: false, entries: make([]entry, 0, le-ls)}
			for _, b := range sl[ls:le] {
				p.entries = append(p.entries, entry{mbr: b.mbr, child: b.n})
			}
			parents = append(parents, p)
		}
	}
	return parents
}

// sameTree reports the first difference between two subtrees: leaf flag,
// entry count and order, item (id and point) and MBR bits, recursively.
func sameTree(got, want *node, path string) error {
	if got.leaf != want.leaf {
		return fmt.Errorf("%s: leaf %v, want %v", path, got.leaf, want.leaf)
	}
	if len(got.entries) != len(want.entries) {
		return fmt.Errorf("%s: %d entries, want %d", path, len(got.entries), len(want.entries))
	}
	for i := range got.entries {
		g, w := got.entries[i], want.entries[i]
		at := fmt.Sprintf("%s/%d", path, i)
		if !sameRect(g.mbr, w.mbr) {
			return fmt.Errorf("%s: mbr %v, want %v", at, g.mbr, w.mbr)
		}
		if got.leaf {
			if g.item.ID != w.item.ID || !sameRect(pointRect(g.item.P), pointRect(w.item.P)) {
				return fmt.Errorf("%s: item %v, want %v", at, g.item, w.item)
			}
			continue
		}
		if err := sameTree(g.child, w.child, at); err != nil {
			return err
		}
	}
	return nil
}

func sameRect(a, b geom.Rect) bool {
	return math.Float64bits(a.Min.X) == math.Float64bits(b.Min.X) &&
		math.Float64bits(a.Min.Y) == math.Float64bits(b.Min.Y) &&
		math.Float64bits(a.Max.X) == math.Float64bits(b.Max.X) &&
		math.Float64bits(a.Max.Y) == math.Float64bits(b.Max.Y)
}

// bulkInputs returns n items of each kind the packer must order exactly
// like the reference: distinct coordinates, coordinates on a 16×16 grid
// (heavy ties on both axes), one point repeated n times, and x = ±0 (equal
// under <, distinct in bits).
func bulkInputs(n int, seed int64) map[string][]Item {
	rng := rand.New(rand.NewSource(seed))
	grid := make([]Item, n)
	dup := make([]Item, n)
	zero := make([]Item, n)
	for i := range grid {
		grid[i] = Item{P: geom.Pt(float64(rng.Intn(16))/16, float64(rng.Intn(16))/16), ID: i}
		dup[i] = Item{P: geom.Pt(0.25, 0.75), ID: i}
		zero[i] = Item{P: geom.Pt(math.Copysign(0, float64(i%2)-0.5), rng.Float64()), ID: i}
	}
	return map[string][]Item{"distinct": randomItems(n, seed), "grid": grid, "duplicate": dup, "signed zero": zero}
}

func TestBulkMatchesReference(t *testing.T) {
	for _, m := range []int{4, 16, 32} {
		for _, n := range []int{0, 1, m - 1, m, m + 1, 1000, 21287} {
			for kind, items := range bulkInputs(n, int64(n*m+1)) {
				name := fmt.Sprintf("M=%d/n=%d/%s", m, n, kind)
				in := append([]Item(nil), items...)
				tr := Bulk(items, m)
				for i := range items {
					if items[i] != in[i] {
						t.Fatalf("%s: Bulk reordered its input", name)
					}
				}
				if n == 0 {
					if tr.Len() != 0 || !tr.root.leaf || len(tr.root.entries) != 0 {
						t.Fatalf("%s: want an empty root leaf", name)
					}
					continue
				}
				if err := sameTree(tr.root, refPack(in, m), "root"); err != nil {
					t.Fatalf("%s Bulk: %v", name, err)
				}

				// Churn, then Rebuild: the repack must equal the
				// reference packing of the same enumeration order.
				rng := rand.New(rand.NewSource(int64(n + m)))
				for i := 0; i < min(n/3, 300); i++ {
					it := items[rng.Intn(n)]
					if tr.Delete(it) {
						it.P = geom.Pt(math.Floor(rng.Float64()*16)/16, it.P.Y)
						tr.Insert(it)
					}
				}
				if err := tr.checkInvariants(); err != nil {
					t.Fatalf("%s churn: %v", name, err)
				}
				var churned []Item
				tr.All(func(it Item) bool { churned = append(churned, it); return true })
				tr.Rebuild()
				if err := sameTree(tr.root, refPack(churned, m), "root"); err != nil {
					t.Fatalf("%s Rebuild: %v", name, err)
				}
				if err := tr.checkInvariants(); err != nil {
					t.Fatalf("%s Rebuild: %v", name, err)
				}
			}
		}
	}
}

// TestBulkAllocs fences the slab packer: a load allocates a constant
// number of times (each level's slabs and sort buffer), not once per node.
func TestBulkAllocs(t *testing.T) {
	for _, n := range []int{2000, 21287} {
		items := randomItems(n, 22)
		if got := testing.AllocsPerRun(5, func() { Bulk(items, DefaultMaxEntries) }); got > 64 {
			t.Errorf("n=%d: Bulk allocates %.0f times, want ≤ 64", n, got)
		}
	}
}
