// Roadtrip: the road-network extension of Section 8. Three drivers move
// on a synthetic city road network; the meeting point minimizes the
// maximum SHORTEST-PATH distance (not Euclidean), and each driver's safe
// region is a range-search region over road segments — the network analog
// of the rmax circle, valid by the same Theorem 1 argument because the
// network distance is a metric.
//
// Run with: go run ./examples/roadtrip
package main

import (
	"fmt"
	"log"
	"math/rand"

	"mpn"
)

// car is a driver between junctions from and to, done along that segment.
type car struct {
	from, to int
	done     float64
}

// drive moves the car dist (> 0) along its segment, turning onto a random
// adjoining road at each junction, and returns its location interpolated
// between junction coordinates — the server snaps reports onto the road.
func (c *car) drive(net *mpn.RoadNetwork, rng *rand.Rand, dist float64) mpn.Point {
	for {
		a, b := net.Nodes[c.from].P, net.Nodes[c.to].P
		l := a.Dist(b)
		if c.done+dist <= l {
			c.done += dist
			return a.Add(b.Sub(a).Scale(c.done / l))
		}
		dist -= l - c.done
		roads := net.Adj[c.to]
		c.from, c.to, c.done = c.to, roads[rng.Intn(len(roads))].To, 0
	}
}

func main() {
	log.SetFlags(0)

	net, err := mpn.GenerateRoadNetwork(mpn.RoadNetConfig{
		Rows: 25, Cols: 25, Jitter: 0.25, DropFrac: 0.1, Arterials: 12, Seed: 11,
	})
	if err != nil {
		log.Fatal(err)
	}
	// Every 6th junction hosts a candidate meeting venue.
	var venues []int
	for v := 0; v < net.NumNodes(); v += 6 {
		venues = append(venues, v)
	}
	server, err := mpn.NewServer(nil, mpn.WithRoadNetwork(net, venues))
	if err != nil {
		log.Fatal(err)
	}
	defer server.Close()
	fmt.Printf("road network: %d junctions, %d segments, %d venues\n",
		net.NumNodes(), net.NumEdges(), len(venues))

	// Three drivers start at fixed junctions.
	n := net.NumNodes()
	cars := []car{{from: 3, to: 3}, {from: n / 2, to: n / 2}, {from: n - 4, to: n - 4}}
	locs := make([]mpn.Point, len(cars))
	for i, c := range cars {
		locs[i] = net.Nodes[c.from].P
	}
	group, err := server.Register(locs, nil)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("meet at the venue at %v\n", group.MeetingPoint())
	for i, r := range group.Regions() {
		fmt.Printf("driver %d: range region of %d wire bytes\n", i+1, len(mpn.EncodeRegion(r)))
	}

	// Continuous monitoring: the drivers wander the streets and report
	// only when one of them leaves her region.
	const ticks = 2000
	rng := rand.New(rand.NewSource(5))
	for t := 1; t < ticks; t++ {
		escaped := false
		for i := range cars {
			locs[i] = cars[i].drive(net, rng, 0.0015)
			escaped = escaped || group.NeedsUpdate(i, locs[i])
		}
		if escaped {
			if err := group.Update(locs, nil); err != nil {
				log.Fatal(err)
			}
		}
	}
	fmt.Printf("\n%d timestamps of driving: %d plans (%.1f per 1k); per-tick polling would have cost %d reports\n",
		ticks, group.Updates(), float64(group.Updates())*1000/ticks, len(cars)*ticks)
}
