package rtree

import (
	"math"
	"slices"

	"mpn/internal/geom"
)

// Bulk builds a tree from items using the Sort-Tile-Recursive (STR)
// packing algorithm: items are sorted by x, cut into √(n/M) vertical
// slices, each slice sorted by y and packed into full leaves; the process
// repeats one level up until a single root remains. STR yields near-optimal
// space utilization and is how the experiment harness loads the POI sets.
//
// The tree is a function of items and their order: each sort puts its
// keys in the order pdqsort (sort.Slice, slices.SortFunc) gives them
// under strict < — on x, then on y within each slice, and one level up
// on node MBR centers — so tied keys land where pdqsort permutes them,
// not in input order. items itself is left as it is.
func Bulk(items []Item, maxEntries int) *Tree {
	t := New(maxEntries)
	if len(items) == 0 {
		return t
	}
	t.root = pack(items, t.maxEntries)
	t.size = len(items)
	return t
}

// Rebuild re-packs the tree in place with the STR bulk loader, restoring
// near-optimal space utilization after heavy insert/delete churn has
// degraded node occupancy (deletions condense nodes toward the 40% floor
// and reinsertions skew MBRs). The item set is unchanged; the mutation
// version is bumped once, after the new structure is in place, since the
// physical reorganization invalidates any traversal in progress.
func (t *Tree) Rebuild() {
	if t.size > 0 {
		items := make([]Item, 0, t.size)
		t.All(func(it Item) bool { items = append(items, it); return true })
		t.root = pack(items, t.maxEntries)
	}
	t.published()
}

// pack STR-packs a non-empty items level by level and returns the root.
// Each level's nodes and entries are one slab apiece, a node's entries a
// 3-index slice of it, so an Insert into a full node reallocates.
func pack(items []Item, m int) *node {
	entries := make([]entry, len(items))
	for j, k := range strOrder(len(items), m, func(i int) geom.Point { return items[i].P }) {
		entries[j] = entry{mbr: pointRect(items[k.i].P), item: items[k.i]}
	}
	for leaf := true; ; leaf = false {
		level := make([]node, (len(entries)+m-1)/m)
		for i := range level {
			hi := min((i+1)*m, len(entries))
			level[i] = node{leaf: leaf, entries: entries[i*m : hi : hi]}
		}
		if len(level) == 1 {
			return &level[0]
		}
		mbrs := make([]geom.Rect, len(level))
		for i := range level {
			mbrs[i] = level[i].mbr()
		}
		entries = make([]entry, len(level))
		for j, k := range strOrder(len(level), m, func(i int) geom.Point { return mbrs[i].Center() }) {
			entries[j] = entry{mbr: mbrs[k.i], child: &level[k.i]}
		}
	}
}

// sortKey stands for entry i in a sort on coordinate v.
type sortKey struct {
	v float64
	i int
}

// strOrder returns n entries' STR order, given their points: sorted by x,
// then each slice of ⌈√⌈n/m⌉⌉·m entries (a multiple of m, so no node
// straddles two slices) sorted by y.
func strOrder(n, m int, at func(i int) geom.Point) []sortKey {
	ks, tmp := make([]sortKey, n), make([]sortKey, n)
	byX := func() {
		for i := range ks {
			ks[i] = sortKey{at(i).X, i}
		}
	}
	byX()
	sortByV(ks, tmp, byX)
	size := int(math.Ceil(math.Sqrt(float64((n+m-1)/m)))) * m
	in := make([]sortKey, size)
	for lo := 0; lo < n; lo += size {
		sl := ks[lo:min(lo+size, n)]
		for j := range sl {
			sl[j].v = at(sl[j].i).Y
		}
		copy(in, sl)
		sortByV(sl, tmp, func() { copy(sl, in) })
	}
	return ks
}

// sortByV sorts ks on v into the order slices.SortFunc gives under a
// strict <, with tmp (as long as ks, or longer) as scratch. Distinct keys
// have one sorted order, which a byte-wise LSD radix sort reaches in
// linear time. If the result holds a tie (or a NaN), restore puts the
// input back for pdqsort, whose permutation decides where tied keys go.
func sortByV(ks, tmp []sortKey, restore func()) {
	var counts [8][256]int
	for _, k := range ks {
		for d, b := 0, radixKey(k.v); d < 8; d, b = d+1, b>>8 {
			counts[d][byte(b)]++
		}
	}
	src, dst := ks, tmp[:len(ks)]
	for d := range counts {
		c := &counts[d]
		if c[byte(radixKey(src[0].v)>>(8*d))] == len(src) {
			continue // every key has this digit
		}
		for x, sum := 0, 0; x < 256; x++ {
			c[x], sum = sum, sum+c[x]
		}
		for _, k := range src {
			x := byte(radixKey(k.v) >> (8 * d))
			dst[c[x]] = k
			c[x]++
		}
		src, dst = dst, src
	}
	copy(ks, src)
	for j := 1; j < len(ks); j++ {
		if !(ks[j-1].v < ks[j].v) {
			restore()
			slices.SortFunc(ks, func(a, b sortKey) int {
				if a.v < b.v {
					return -1 // pdqsort asks only whether cmp < 0
				}
				return 0
			})
			return
		}
	}
}

// radixKey maps v to a uint64 whose unsigned order is v's order, with -0
// below +0 (a tie under <, which sortByV's check catches).
func radixKey(v float64) uint64 {
	b := math.Float64bits(v)
	if b>>63 != 0 {
		return ^b
	}
	return b | 1<<63
}
