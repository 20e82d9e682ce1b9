// Package heapq is a generic slice-backed binary min-heap: the one
// sift-up/sift-down implementation behind the road network's Dijkstra
// queues (roadnet.ShortestPath, and netmpn's sssp and rangeRegion, which
// runs on every network plan). Elements order themselves through a Less
// method on the concrete type, so pushes and pops move typed values with
// no interface{} boxing. The R-tree's best-first queue does not use it:
// there Less sits behind a GC-shape dictionary call, and the generic form
// measured ~49 % slower than the typed copy in rtree/search.go.
package heapq

// Ordered constrains heap elements to types that can compare themselves.
type Ordered[T any] interface {
	// Less reports whether the receiver sorts strictly before other.
	Less(other T) bool
}

// Push appends e to the heap q and restores min-heap order, returning
// the grown slice. The input must already be heap-ordered.
func Push[T Ordered[T]](q []T, e T) []T {
	q = append(q, e)
	i := len(q) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !q[i].Less(q[parent]) {
			break
		}
		q[parent], q[i] = q[i], q[parent]
		i = parent
	}
	return q
}

// Pop removes and returns the minimum element, returning the shrunk
// slice. The input must be non-empty and heap-ordered.
func Pop[T Ordered[T]](q []T) (T, []T) {
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
		if r := l + 1; r < n && q[r].Less(q[l]) {
			least = r
		}
		if !q[least].Less(q[i]) {
			break
		}
		q[i], q[least] = q[least], q[i]
		i = least
	}
	return top, q
}
