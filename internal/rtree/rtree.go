// Package rtree implements an in-memory R-tree over 2-D points. It is the
// server-side index for the POI data set P in the MPN system architecture
// (Fig. 3 of the paper): the GNN engine and the safe-region candidate
// retrieval both traverse it.
//
// The tree supports one-by-one insertion with quadratic node splitting
// (Guttman's classic heuristic), deletion with underflow condensing and
// orphan reinsertion, Sort-Tile-Recursive (STR) bulk loading plus an
// in-place Rebuild that re-packs a churned tree, and best-first traversal
// parameterized by caller-supplied bounds, from which k-nearest-neighbor
// and aggregate-nearest-neighbor searches are built.
package rtree

import (
	"fmt"
	"math"
	"sync/atomic"

	"mpn/internal/geom"
)

// Item is an indexed point: P is the location, ID identifies the point in
// the caller's data set (typically its slice index).
type Item struct {
	P  geom.Point
	ID int
}

// DefaultMaxEntries is the default node fan-out. 32 entries per node keeps
// the tree shallow for the 21k-POI workloads of the paper while bounding
// split cost.
const DefaultMaxEntries = 32

type entry struct {
	mbr   geom.Rect
	child *node // nil at leaves
	item  Item  // valid at leaves
}

type node struct {
	leaf    bool
	entries []entry
}

// pointRect is the degenerate MBR of a single point.
func pointRect(p geom.Point) geom.Rect { return geom.Rect{Min: p, Max: p} }

func (n *node) mbr() geom.Rect {
	m := n.entries[0].mbr
	for _, e := range n.entries[1:] {
		m = m.Union(e.mbr)
	}
	return m
}

// Tree is an R-tree over Items. The zero value is not usable; construct
// with New or Bulk.
type Tree struct {
	root       *node
	size       int
	maxEntries int
	minEntries int

	// version counts structural mutations (see Version). It is atomic so
	// concurrent readers can check it without a lock, but the tree itself
	// is still not safe for mutation concurrent with searches.
	version atomic.Uint64

	// mutateHook, when non-nil, runs after a mutation's structural change
	// and before its version publication. Tests install it to pin the
	// mutate-then-publish ordering; production trees leave it nil.
	mutateHook func()
}

// Version returns the tree's monotone mutation counter: it starts at 0
// for a freshly built (New or Bulk) tree and increases on every Insert,
// Delete, and Rebuild. The counter is published after the structural
// change it counts: an observer that reads version v and then traverses
// sees at least the first v mutations (never a newer version paired with
// an older tree).
func (t *Tree) Version() uint64 { return t.version.Load() }

// SetVersion overwrites the mutation counter. It exists for writers that
// maintain logically continuous replacement indexes — the core.Planner
// snapshot writer keeps both of its buffered trees' versions aligned
// with the canonical mutation count so a swap never moves the version
// backwards. Ordinary callers never need it.
func (t *Tree) SetVersion(v uint64) { t.version.Store(v) }

// published runs the test hook (if any) and then publishes one mutation
// on the version counter. Every mutating operation ends with it.
func (t *Tree) published() {
	if t.mutateHook != nil {
		t.mutateHook()
	}
	t.version.Add(1)
}

// New returns an empty tree with the given maximum node fan-out. A
// maxEntries below 4 is raised to 4.
func New(maxEntries int) *Tree {
	if maxEntries < 4 {
		maxEntries = 4
	}
	return &Tree{
		root:       &node{leaf: true},
		maxEntries: maxEntries,
		minEntries: maxEntries * 2 / 5, // 40% fill guarantee on splits
	}
}

// Len returns the number of items stored.
func (t *Tree) Len() int { return t.size }

// Height returns the number of levels (1 for a tree holding only a root
// leaf). Exposed for tests and diagnostics.
func (t *Tree) Height() int {
	h := 1
	for n := t.root; !n.leaf; n = n.entries[0].child {
		h++
	}
	return h
}

// Insert adds an item to the tree and then bumps the mutation version.
// The bump strictly follows the structural change, so a concurrent
// version reader can never pin the new version against the old tree.
func (t *Tree) Insert(it Item) {
	t.insertEntry(entry{mbr: pointRect(it.P), item: it})
	t.size++
	t.published()
}

// insertEntry places e in the tree, growing the root on a split. It does
// not touch size or version; callers own that accounting.
func (t *Tree) insertEntry(e entry) {
	split := t.insert(t.root, e)
	if split != nil {
		// Root split: grow the tree by one level.
		old := t.root
		t.root = &node{
			leaf: false,
			entries: []entry{
				{mbr: old.mbr(), child: old},
				{mbr: split.mbr(), child: split},
			},
		}
	}
}

// insert recursively places e under n and returns a non-nil new sibling if
// n overflowed and was split.
func (t *Tree) insert(n *node, e entry) *node {
	if n.leaf {
		n.entries = append(n.entries, e)
		if len(n.entries) > t.maxEntries {
			return t.splitNode(n)
		}
		return nil
	}
	i := chooseSubtree(n, e.mbr)
	child := n.entries[i].child
	newSibling := t.insert(child, e)
	n.entries[i].mbr = n.entries[i].mbr.Union(e.mbr)
	if newSibling != nil {
		n.entries = append(n.entries, entry{mbr: newSibling.mbr(), child: newSibling})
		// Recompute the split child's MBR: entries moved out of it.
		n.entries[i].mbr = child.mbr()
		if len(n.entries) > t.maxEntries {
			return t.splitNode(n)
		}
	}
	return nil
}

// chooseSubtree picks the child whose MBR needs the least enlargement to
// cover r, breaking ties by smaller area.
func chooseSubtree(n *node, r geom.Rect) int {
	best := 0
	bestEnlarge := math.Inf(1)
	bestArea := math.Inf(1)
	for i, e := range n.entries {
		area := e.mbr.Area()
		enlarged := e.mbr.Union(r).Area() - area
		if enlarged < bestEnlarge || (enlarged == bestEnlarge && area < bestArea) {
			best, bestEnlarge, bestArea = i, enlarged, area
		}
	}
	return best
}

// splitNode splits an overflowing node in place using the quadratic
// pick-seeds / pick-next heuristic and returns the new sibling.
func (t *Tree) splitNode(n *node) *node {
	entries := n.entries

	// Pick seeds: the pair wasting the most area if grouped together.
	si, sj := 0, 1
	worst := math.Inf(-1)
	for i := 0; i < len(entries); i++ {
		for j := i + 1; j < len(entries); j++ {
			waste := entries[i].mbr.Union(entries[j].mbr).Area() -
				entries[i].mbr.Area() - entries[j].mbr.Area()
			if waste > worst {
				worst, si, sj = waste, i, j
			}
		}
	}

	groupA := []entry{entries[si]}
	groupB := []entry{entries[sj]}
	mbrA, mbrB := entries[si].mbr, entries[sj].mbr
	rest := make([]entry, 0, len(entries)-2)
	for i, e := range entries {
		if i != si && i != sj {
			rest = append(rest, e)
		}
	}

	// Distribute the remaining entries.
	for len(rest) > 0 {
		// Honor the minimum fill guarantee.
		if len(groupA)+len(rest) == t.minEntries {
			groupA = append(groupA, rest...)
			for _, e := range rest {
				mbrA = mbrA.Union(e.mbr)
			}
			break
		}
		if len(groupB)+len(rest) == t.minEntries {
			groupB = append(groupB, rest...)
			for _, e := range rest {
				mbrB = mbrB.Union(e.mbr)
			}
			break
		}
		// Pick-next: entry with the greatest preference for one group.
		bestIdx, bestDiff := 0, -1.0
		var bestToA bool
		for i, e := range rest {
			dA := mbrA.Union(e.mbr).Area() - mbrA.Area()
			dB := mbrB.Union(e.mbr).Area() - mbrB.Area()
			diff := math.Abs(dA - dB)
			if diff > bestDiff {
				bestDiff, bestIdx, bestToA = diff, i, dA < dB
			}
		}
		e := rest[bestIdx]
		rest[bestIdx] = rest[len(rest)-1]
		rest = rest[:len(rest)-1]
		if bestToA {
			groupA = append(groupA, e)
			mbrA = mbrA.Union(e.mbr)
		} else {
			groupB = append(groupB, e)
			mbrB = mbrB.Union(e.mbr)
		}
	}

	n.entries = groupA
	return &node{leaf: n.leaf, entries: groupB}
}

// Search invokes fn for every item whose point lies inside r. fn returning
// false stops the search early. It reports whether the search ran to
// completion.
func (t *Tree) Search(r geom.Rect, fn func(Item) bool) bool {
	if t.size == 0 {
		return true
	}
	return searchNode(t.root, r, fn)
}

func searchNode(n *node, r geom.Rect, fn func(Item) bool) bool {
	for _, e := range n.entries {
		if !r.Intersects(e.mbr) {
			continue
		}
		if n.leaf {
			if !fn(e.item) {
				return false
			}
		} else if !searchNode(e.child, r, fn) {
			return false
		}
	}
	return true
}

// All invokes fn for every item in the tree.
func (t *Tree) All(fn func(Item) bool) bool {
	if t.size == 0 {
		return true
	}
	return allNode(t.root, fn)
}

func allNode(n *node, fn func(Item) bool) bool {
	for _, e := range n.entries {
		if n.leaf {
			if !fn(e.item) {
				return false
			}
		} else if !allNode(e.child, fn) {
			return false
		}
	}
	return true
}

// checkInvariants verifies structural invariants: MBR containment, leaf
// depth uniformity, and fan-out bounds. Used by tests.
func (t *Tree) checkInvariants() error {
	if t.size == 0 {
		return nil
	}
	depth := -1
	var walk func(n *node, d int) (geom.Rect, int, error)
	walk = func(n *node, d int) (geom.Rect, int, error) {
		if len(n.entries) == 0 {
			return geom.Rect{}, 0, fmt.Errorf("empty node at depth %d", d)
		}
		if n != t.root && (len(n.entries) > t.maxEntries) {
			return geom.Rect{}, 0, fmt.Errorf("node overflow: %d entries", len(n.entries))
		}
		count := 0
		mbr := n.entries[0].mbr
		for _, e := range n.entries {
			mbr = mbr.Union(e.mbr)
			if n.leaf {
				if depth == -1 {
					depth = d
				} else if depth != d {
					return geom.Rect{}, 0, fmt.Errorf("leaves at depths %d and %d", depth, d)
				}
				count++
				continue
			}
			cm, cc, err := walk(e.child, d+1)
			if err != nil {
				return geom.Rect{}, 0, err
			}
			if !e.mbr.ContainsRect(cm) {
				return geom.Rect{}, 0, fmt.Errorf("entry MBR %v does not contain child MBR %v", e.mbr, cm)
			}
			count += cc
		}
		return mbr, count, nil
	}
	_, count, err := walk(t.root, 0)
	if err != nil {
		return err
	}
	if count != t.size {
		return fmt.Errorf("size mismatch: counted %d, recorded %d", count, t.size)
	}
	return nil
}
