package rtree

import (
	"mpn/internal/geom"
)

// pqEntry is a priority queue element for best-first traversal: either a
// node to expand or an item ready to be reported.
type pqEntry struct {
	dist float64
	node *node
	item Item
}

// Scratch holds the reusable traversal state of the search primitives:
// the typed best-first priority queue and the explicit stack of the
// pruned depth-first walk. The zero value is ready to use. Reusing one
// Scratch across searches retains the grown backing arrays, so
// steady-state traversals allocate nothing. A Scratch is not safe for
// concurrent use; give each goroutine its own.
type Scratch struct {
	pq    []pqEntry
	stack []*node
}

// pqPush appends e and restores the min-heap order on dist. A typed
// sift-up instead of container/heap avoids boxing every entry through
// the interface{} API (one heap allocation per push).
//
// Keep it hand-typed (as roadnet.NodeQueue is): measured on
// BenchmarkBestFirstInto (top-50 kNN over 21,287 points, go1.24
// linux/amd64), a generic heap ran ~21.0µs/op against ~14.1µs/op typed,
// ~49% slower, because pqEntry's pointer field puts Less behind a
// gcshape dictionary call in the innermost loop.
func pqPush(q []pqEntry, e pqEntry) []pqEntry {
	q = append(q, e)
	i := len(q) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if q[parent].dist <= q[i].dist {
			break
		}
		q[parent], q[i] = q[i], q[parent]
		i = parent
	}
	return q
}

// pqPop removes and returns the minimum entry.
func pqPop(q []pqEntry) (pqEntry, []pqEntry) {
	top := q[0]
	n := len(q) - 1
	q[0] = q[n]
	q = q[:n]
	i := 0
	for {
		l := 2*i + 1
		if l >= n {
			break
		}
		least := l
		if r := l + 1; r < n && q[r].dist < q[l].dist {
			least = r
		}
		if q[i].dist <= q[least].dist {
			break
		}
		q[i], q[least] = q[least], q[i]
		i = least
	}
	return top, q
}

// BestFirstQuery parameterizes BestFirstInto. Implementations are
// typically small structs resident in a caller-owned workspace, passed by
// pointer so the interface conversion does not allocate.
type BestFirstQuery interface {
	// NodeLB lower-bounds ItemDist over every item stored under a node
	// with the given MBR.
	NodeLB(geom.Rect) float64
	// ItemDist is an item's exact distance.
	ItemDist(Item) float64
	// Visit receives items in non-decreasing ItemDist order; returning
	// false stops the traversal.
	Visit(Item, float64) bool
}

// BestFirstInto visits items in non-decreasing ItemDist order using q's
// NodeLB to order and prune internal nodes, with all traversal state in
// s. It is the allocation-free core of BestFirst: after s's priority
// queue has grown to the traversal's working size, repeated searches
// allocate nothing.
func (t *Tree) BestFirstInto(s *Scratch, q BestFirstQuery) {
	if t.size == 0 {
		return
	}
	pq := pqPush(s.pq[:0], pqEntry{dist: q.NodeLB(t.root.mbr()), node: t.root})
	for len(pq) > 0 {
		var e pqEntry
		e, pq = pqPop(pq)
		if e.node == nil {
			if !q.Visit(e.item, e.dist) {
				break
			}
			continue
		}
		for _, c := range e.node.entries {
			if e.node.leaf {
				pq = pqPush(pq, pqEntry{dist: q.ItemDist(c.item), item: c.item})
			} else {
				pq = pqPush(pq, pqEntry{dist: q.NodeLB(c.mbr), node: c.child})
			}
		}
	}
	s.pq = pq[:0]
}

// funcBestFirst adapts the closure-based BestFirst API to BestFirstQuery.
type funcBestFirst struct {
	nodeLB   func(geom.Rect) float64
	itemDist func(Item) float64
	visit    func(Item, float64) bool
}

func (f *funcBestFirst) NodeLB(r geom.Rect) float64    { return f.nodeLB(r) }
func (f *funcBestFirst) ItemDist(it Item) float64      { return f.itemDist(it) }
func (f *funcBestFirst) Visit(it Item, d float64) bool { return f.visit(it, d) }

// BestFirst visits items in non-decreasing order of itemDist, using nodeLB
// as a lower bound to order and prune internal nodes: nodeLB(mbr) must be
// ≤ itemDist(it) for every item it stored under a node with that MBR.
// visit returning false stops the traversal.
//
// This single primitive implements kNN (nodeLB = MinDist to the query
// point), aggregate GNN searches (nodeLB = aggregate of MinDists to all
// users, per [24]), and incremental candidate enumeration for safe-region
// verification. Hot paths that cannot afford the per-call scratch
// allocation use BestFirstInto with a reused Scratch instead.
func (t *Tree) BestFirst(
	nodeLB func(geom.Rect) float64,
	itemDist func(Item) float64,
	visit func(Item, float64) bool,
) {
	var s Scratch
	f := funcBestFirst{nodeLB: nodeLB, itemDist: itemDist, visit: visit}
	t.BestFirstInto(&s, &f)
}

// Neighbor is one kNN result.
type Neighbor struct {
	Item Item
	Dist float64
}

// KNN returns the k nearest items to q in increasing distance order. If the
// tree holds fewer than k items, all of them are returned.
func (t *Tree) KNN(q geom.Point, k int) []Neighbor {
	if k <= 0 {
		return nil
	}
	out := make([]Neighbor, 0, k)
	t.BestFirst(
		func(r geom.Rect) float64 { return r.MinDist(q) },
		func(it Item) float64 { return it.P.Dist(q) },
		func(it Item, d float64) bool {
			out = append(out, Neighbor{Item: it, Dist: d})
			return len(out) < k
		},
	)
	return out
}

// PruneQuery parameterizes PrunedSearchInto. As with BestFirstQuery,
// implementations live in a caller-owned workspace and are passed by
// pointer, so one traversal performs no allocations at all.
type PruneQuery interface {
	// Keep decides whether a subtree (or a leaf item's point-rect) can
	// contain candidates and should be descended into.
	Keep(geom.Rect) bool
	// VisitItem receives every kept item; returning false stops the
	// search.
	VisitItem(Item) bool
}

// PrunedSearchInto walks the tree iteratively with an explicit stack in
// s, descending only into entries for which q.Keep returns true and
// invoking q.VisitItem on every kept leaf item. It visits items in the
// same depth-first order as the recursive formulation and reports whether
// the search ran to completion.
func (t *Tree) PrunedSearchInto(s *Scratch, q PruneQuery) bool {
	if t.size == 0 {
		return true
	}
	stack := append(s.stack[:0], t.root)
	for len(stack) > 0 {
		n := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if n.leaf {
			for _, e := range n.entries {
				if !q.Keep(e.mbr) {
					continue
				}
				if !q.VisitItem(e.item) {
					s.stack = stack[:0]
					return false
				}
			}
			continue
		}
		// Push children in reverse so they pop in entry order, matching
		// the recursive depth-first visit sequence.
		for i := len(n.entries) - 1; i >= 0; i-- {
			if q.Keep(n.entries[i].mbr) {
				stack = append(stack, n.entries[i].child)
			}
		}
	}
	s.stack = stack[:0]
	return true
}

// funcPrune adapts the closure-based PrunedSearch API to PruneQuery.
type funcPrune struct {
	keep func(geom.Rect) bool
	fn   func(Item) bool
}

func (f *funcPrune) Keep(r geom.Rect) bool  { return f.keep(r) }
func (f *funcPrune) VisitItem(it Item) bool { return f.fn(it) }

// PrunedSearch walks the tree, descending only into nodes for which keep
// returns true, and invokes fn on every item in a kept leaf whose own
// point-rect also passes keep. It implements the Theorem 3 / Theorem 6
// index pruning: keep receives an MBR and decides whether the subtree can
// contain candidate meeting points.
func (t *Tree) PrunedSearch(keep func(geom.Rect) bool, fn func(Item) bool) bool {
	var s Scratch
	f := funcPrune{keep: keep, fn: fn}
	return t.PrunedSearchInto(&s, &f)
}
