package roadnet

import (
	"math/rand"
	"sort"
	"testing"
)

// TestNodeQueueSortsRandomStreams: pushing a random stream and popping it
// all must yield the distances in non-decreasing order, across sizes
// including duplicates.
func TestNodeQueueSortsRandomStreams(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, n := range []int{1, 2, 3, 7, 64, 1000} {
		vals := make([]float64, n)
		q := make(NodeQueue, 0, n)
		for i := range vals {
			vals[i] = float64(rng.Intn(n)) // duplicates likely
			q.Push(i, vals[i])
		}
		sort.Float64s(vals)
		for i := 0; i < n; i++ {
			if top := q.Pop(); top.Dist != vals[i] {
				t.Fatalf("n=%d pop %d: got %v want %v", n, i, top.Dist, vals[i])
			}
		}
		if len(q) != 0 {
			t.Fatalf("n=%d: %d leftovers", n, len(q))
		}
	}
}

// TestNodeQueueInterleavedPushPop mixes pushes and pops and cross-checks
// against a sorted reference multiset.
func TestNodeQueueInterleavedPushPop(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	var q NodeQueue
	var ref []float64
	for step := 0; step < 5000; step++ {
		if len(ref) == 0 || rng.Intn(3) != 0 {
			v := rng.Float64()
			q.Push(step, v)
			ref = append(ref, v)
			sort.Float64s(ref)
		} else {
			if top := q.Pop(); top.Dist != ref[0] {
				t.Fatalf("step %d: popped %v want %v", step, top.Dist, ref[0])
			}
			ref = ref[1:]
		}
	}
}
