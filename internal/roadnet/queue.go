package roadnet

// NodeDist is one Dijkstra frontier entry: a junction and its tentative
// distance.
type NodeDist struct {
	Node int
	Dist float64
}

// NodeQueue is the binary min-heap on Dist behind every road-network
// Dijkstra (ShortestPath, netmpn's sssp and rangeRegion). It is concrete
// because a generic heap calls Less through a GC-shape dictionary, half
// of netmpn's POI table build. Keep the sift code: the pop order of ties
// feeds distances that netmpn's fences compare bit for bit.
type NodeQueue []NodeDist

// Push adds n at distance d and restores heap order.
func (q *NodeQueue) Push(n int, d float64) {
	h := append(*q, NodeDist{Node: n, Dist: d})
	i := len(h) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !(h[i].Dist < h[parent].Dist) {
			break
		}
		h[parent], h[i] = h[i], h[parent]
		i = parent
	}
	*q = h
}

// Pop removes and returns the entry of least distance. The queue must be
// non-empty.
func (q *NodeQueue) Pop() NodeDist {
	h := *q
	top := h[0]
	n := len(h) - 1
	h[0] = h[n]
	h = h[:n]
	i := 0
	for {
		l := 2*i + 1
		if l >= n {
			break
		}
		least := l
		if r := l + 1; r < n && h[r].Dist < h[l].Dist {
			least = r
		}
		if !(h[least].Dist < h[i].Dist) {
			break
		}
		h[i], h[least] = h[least], h[i]
		i = least
	}
	*q = h
	return top
}
