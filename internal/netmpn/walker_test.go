package netmpn

import (
	"fmt"
	"math/rand"

	"mpn/internal/roadnet"
)

// Walker generates network-constrained movement as edge-referenced
// Positions (the network analog of mobility.NetworkTrajectory, which emits
// Euclidean points). It drives the netmpn tests.
type Walker struct {
	net   *roadnet.Network
	rng   *rand.Rand
	speed float64

	path   []int
	seg    int
	offset float64 // distance traveled along the current segment
}

// NewWalker starts a walker at a random node traveling at the given
// distance per step.
func NewWalker(net *roadnet.Network, speed float64, seed int64) (*Walker, error) {
	if net == nil || net.NumNodes() < 2 {
		return nil, fmt.Errorf("netmpn: network too small for walking")
	}
	if speed <= 0 {
		return nil, fmt.Errorf("netmpn: speed %v must be positive", speed)
	}
	w := &Walker{net: net, rng: rand.New(rand.NewSource(seed)), speed: speed}
	w.path = []int{net.RandomNode(w.rng)}
	w.newTrip()
	return w, nil
}

// newTrip routes from the current path end to a fresh random destination.
func (w *Walker) newTrip() {
	cur := w.path[len(w.path)-1]
	for {
		dest := w.net.RandomNode(w.rng)
		if dest == cur {
			continue
		}
		path, _, ok := w.net.ShortestPath(cur, dest)
		if ok && len(path) >= 2 {
			w.path = path
			w.seg = 0
			w.offset = 0
			return
		}
	}
}

// Pos returns the walker's current position.
func (w *Walker) Pos() Position {
	a, b := w.path[w.seg], w.path[w.seg+1]
	l := w.net.Nodes[a].P.Dist(w.net.Nodes[b].P)
	t := 0.0
	if l > 0 {
		t = w.offset / l
	}
	if t > 1 {
		t = 1
	}
	return Position{A: a, B: b, T: t}
}

// Step advances one timestamp and returns the new position.
func (w *Walker) Step() Position {
	remaining := w.speed
	for remaining > 0 {
		a, b := w.path[w.seg], w.path[w.seg+1]
		l := w.net.Nodes[a].P.Dist(w.net.Nodes[b].P)
		left := l - w.offset
		if left > remaining {
			w.offset += remaining
			remaining = 0
			break
		}
		remaining -= left
		w.seg++
		w.offset = 0
		if w.seg >= len(w.path)-1 {
			w.newTrip()
		}
	}
	return w.Pos()
}
