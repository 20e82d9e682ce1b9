// Package gnn implements group nearest neighbor queries over the R-tree:
// top-k MAX-GNN (minimizing the maximum user–POI distance, Definition 2)
// and top-k SUM-GNN (minimizing the sum of distances, Definition 8).
//
// The search is the best-first aggregate traversal of Papadias et al.
// ("Group nearest neighbor queries", ICDE 2004 — reference [24] of the
// paper): internal nodes are ordered and pruned by the aggregate of
// per-user minimum distances to the node MBR, which lower-bounds the
// aggregate distance of every point in the subtree.
package gnn

import (
	"mpn/internal/geom"
	"mpn/internal/rtree"
)

// Aggregate selects the distance aggregation of the meeting-point
// objective.
type Aggregate int

const (
	// Max minimizes the maximum user distance (MPN, MAX-GNN).
	Max Aggregate = iota
	// Sum minimizes the total user distance (Sum-MPN, SUM-GNN).
	Sum
)

// String implements fmt.Stringer.
func (a Aggregate) String() string {
	if a == Max {
		return "max"
	}
	return "sum"
}

// PointDist returns the aggregate distance ‖p,U‖ for the given users: the
// dominant distance ‖p,U‖⊤ (Definition 5) under Max, or ‖p,U‖sum
// (Definition 7) under Sum.
func (a Aggregate) PointDist(p geom.Point, users []geom.Point) float64 {
	switch a {
	case Max:
		d := 0.0
		for _, u := range users {
			if v := p.Dist(u); v > d {
				d = v
			}
		}
		return d
	default:
		d := 0.0
		for _, u := range users {
			d += p.Dist(u)
		}
		return d
	}
}

// RectLowerBound returns a lower bound of the aggregate distance for every
// point inside r.
func (a Aggregate) RectLowerBound(r geom.Rect, users []geom.Point) float64 {
	switch a {
	case Max:
		d := 0.0
		for _, u := range users {
			if v := r.MinDist(u); v > d {
				d = v
			}
		}
		return d
	default:
		d := 0.0
		for _, u := range users {
			d += r.MinDist(u)
		}
		return d
	}
}

// Result is one GNN answer: the POI and its aggregate distance.
type Result struct {
	Item rtree.Item
	Dist float64
}

// Scratch carries the reusable state of one goroutine's GNN searches: the
// R-tree traversal scratch (shared with any other index searches the
// caller performs) and the query object passed to the best-first
// traversal. The zero value is ready to use. Not safe for concurrent use.
type Scratch struct {
	// RTree is the underlying index traversal scratch; callers may share
	// it with their own rtree searches between TopKInto calls.
	RTree rtree.Scratch

	q topkQuery
}

// topkQuery implements rtree.BestFirstQuery for the aggregate top-k
// search. It lives in the Scratch so the traversal performs no per-call
// closure or interface allocations.
type topkQuery struct {
	users  []geom.Point
	agg    Aggregate
	target int // stop once len(out) reaches this
	out    []Result
}

func (q *topkQuery) NodeLB(r geom.Rect) float64     { return q.agg.RectLowerBound(r, q.users) }
func (q *topkQuery) ItemDist(it rtree.Item) float64 { return q.agg.PointDist(it.P, q.users) }
func (q *topkQuery) Visit(it rtree.Item, d float64) bool {
	q.out = append(q.out, Result{Item: it, Dist: d})
	return len(q.out) < q.target
}

// TopKInto is TopK appending into the caller-owned slice out (typically
// workspace memory truncated to zero length) and returning it, with all
// traversal state drawn from s. After out and s have grown to the
// query's working size, repeated searches allocate nothing.
func TopKInto(t *rtree.Tree, s *Scratch, users []geom.Point, agg Aggregate, k int, out []Result) []Result {
	if k <= 0 || len(users) == 0 {
		return out
	}
	s.q = topkQuery{users: users, agg: agg, target: len(out) + k, out: out}
	t.BestFirstInto(&s.RTree, &s.q)
	out = s.q.out
	s.q.users, s.q.out = nil, nil // drop references to caller memory
	return out
}

// TopK returns the k best meeting points for users under the aggregate,
// in increasing aggregate-distance order. Fewer than k results are
// returned only when the tree holds fewer than k points. TopK(…, 1)[0] is
// the optimal meeting point p° of Definition 2 / Definition 8, and
// TopK(…, 2)[1] is the runner-up needed by Circle-MSR (Algorithm 1).
// Hot paths reuse a Scratch via TopKInto instead.
func TopK(t *rtree.Tree, users []geom.Point, agg Aggregate, k int) []Result {
	if k <= 0 || len(users) == 0 {
		return nil
	}
	var s Scratch
	return TopKInto(t, &s, users, agg, k, make([]Result, 0, k))
}

// BruteTopK computes TopK by exhaustive scan. It is the reference
// implementation used by tests and by callers with tiny data sets. It
// keeps a bounded insertion-sorted top k; among exactly equal distances
// the lower id sorts first.
func BruteTopK(points []geom.Point, users []geom.Point, agg Aggregate, k int) []Result {
	if k <= 0 || len(users) == 0 {
		return nil
	}
	out := make([]Result, 0, k)
	for id, p := range points {
		d := agg.PointDist(p, users)
		pos := len(out)
		for pos > 0 && out[pos-1].Dist > d {
			pos--
		}
		if pos >= k {
			continue
		}
		if len(out) < k {
			out = append(out, Result{})
		}
		copy(out[pos+1:], out[pos:])
		out[pos] = Result{Item: rtree.Item{P: p, ID: id}, Dist: d}
	}
	return out
}

// Optimal returns the single best meeting point, or ok=false when the tree
// is empty.
func Optimal(t *rtree.Tree, users []geom.Point, agg Aggregate) (Result, bool) {
	res := TopK(t, users, agg, 1)
	if len(res) == 0 {
		return Result{}, false
	}
	return res[0], true
}
