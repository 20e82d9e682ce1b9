package mpn

// Public-API tests for the road-network backend (WithRoadNetwork /
// NetRange): option validation, end-to-end serving with incremental
// maintenance under concurrent group churn (run with -race), and the 'N'
// wire codec round trip.

import (
	"bytes"
	"errors"
	"math/rand"
	"sync"
	"testing"

	"mpn/internal/proto"
	"mpn/internal/roadnet"
)

func testRoadNet(t *testing.T) *RoadNetwork {
	t.Helper()
	cfg := DefaultRoadNetConfig()
	cfg.Rows, cfg.Cols = 16, 16
	cfg.Seed = 7
	net, err := GenerateRoadNetwork(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return net
}

func netPOINodes(net *RoadNetwork, every int) []int {
	var nodes []int
	for i := 0; i < net.NumNodes(); i += every {
		nodes = append(nodes, i)
	}
	return nodes
}

func TestNetRangeOptionValidation(t *testing.T) {
	net := testRoadNet(t)
	if _, err := NewServer(nil, WithMethod(NetRange)); err == nil {
		t.Fatal("NetRange without WithRoadNetwork accepted")
	}
	if _, err := NewServer(nil, WithRoadNetwork(net, netPOINodes(net, 7)), WithMethod(Circle)); err == nil {
		t.Fatal("WithRoadNetwork with a Euclidean method accepted")
	}
	if _, err := NewServer(nil, WithRoadNetwork(net, netPOINodes(net, 7)), WithSharedGNNCache(1<<20)); err == nil {
		t.Fatal("WithSharedGNNCache on a network server accepted")
	}
	if _, err := NewServer(nil, WithRoadNetwork(net, nil)); err == nil {
		t.Fatal("empty POI node set accepted")
	}
	if _, err := NewServer(nil, WithRoadNetwork(net, []int{net.NumNodes()})); err == nil {
		t.Fatal("out-of-range POI node accepted")
	}
	if _, err := NewServer(nil, WithRoadNetwork(nil, []int{0})); err == nil {
		t.Fatal("nil network accepted")
	}
	oneWay := *net
	oneWay.Adj = append([][]roadnet.Edge{net.Adj[0][1:]}, net.Adj[1:]...)
	if _, err := NewServer(nil, WithRoadNetwork(&oneWay, []int{0})); !errors.Is(err, ErrBadNetwork) {
		t.Fatalf("network with a missing reverse edge: err %v, want ErrBadNetwork", err)
	}
	if NetRange.String() != "net-range" {
		t.Fatalf("NetRange.String() = %q", NetRange.String())
	}
}

func TestNetRangeServer(t *testing.T) {
	net := testRoadNet(t)
	s, err := NewServer(nil,
		WithRoadNetwork(net, netPOINodes(net, 9)),
		WithIncremental())
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	rng := rand.New(rand.NewSource(41))
	users := []Point{Pt(0.42, 0.40), Pt(0.45, 0.44), Pt(0.40, 0.46)}
	g, err := s.Register(users, nil)
	if err != nil {
		t.Fatal(err)
	}
	if g.Size() != 3 {
		t.Fatalf("group size %d", g.Size())
	}
	meeting := g.MeetingPoint()
	if meeting == (Point{}) {
		t.Fatal("zero meeting point after registration")
	}
	for step := 0; step < 40; step++ {
		for i := range users {
			users[i] = Pt(
				users[i].X+(rng.Float64()-0.5)*0.003,
				users[i].Y+(rng.Float64()-0.5)*0.003,
			)
		}
		if err := g.Update(users, nil); err != nil {
			t.Fatal(err)
		}
		regions := g.Regions()
		if len(regions) != len(users) {
			t.Fatalf("step %d: %d regions for %d users", step, len(regions), len(users))
		}
		for i, r := range regions {
			if r.Net == nil {
				t.Fatalf("step %d: region %d is not a network region", step, i)
			}
			// The member's on-network position must lie inside her region:
			// moving along the reported location's snapped roads cannot
			// escape unnoticed.
			enc := EncodeRegion(r)
			if len(enc) == 0 || enc[0] != 'N' {
				t.Fatalf("step %d: region %d encoded with tag %q", step, i, enc[:1])
			}
			dec, err := DecodeRegion(enc)
			if err != nil {
				t.Fatal(err)
			}
			if !dec.Net.EqualRegion(r.Net) {
				t.Fatalf("step %d: region %d round trip changed the region", step, i)
			}
		}
	}
	if g.Updates() < 40 {
		t.Fatalf("only %d updates recorded", g.Updates())
	}
}

// TestNetRangeRefusesPOIChurn: a road-network server plans from POI
// distances its backend computed once, at construction, so POI mutation
// is refused with ErrFixedPOIs — not applied to an index the backend
// never plans with, after which plans would still name deleted POIs.
func TestNetRangeRefusesPOIChurn(t *testing.T) {
	net := testRoadNet(t)
	s, err := NewServer(nil, WithRoadNetwork(net, netPOINodes(net, 7)))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	users := []Point{Pt(0.5, 0.5), Pt(0.53, 0.48), Pt(0.45, 0.52)}
	before, _, _, err := s.Plan(users, nil)
	if err != nil {
		t.Fatal(err)
	}
	n := s.NumPOIs()
	all := make([]int, n-1)
	for i := range all {
		all[i] = i
	}
	if ids, err := s.UpdatePOIs([]Point{users[0]}, all); !errors.Is(err, ErrFixedPOIs) || ids != nil {
		t.Fatalf("UpdatePOIs = %v, %v; want ErrFixedPOIs", ids, err)
	}
	if id := s.InsertPOI(users[0]); id != -1 {
		t.Fatalf("InsertPOI = %d, want -1", id)
	}
	if s.DeletePOI(0) {
		t.Fatal("DeletePOI accepted")
	}
	if s.NumPOIs() != n {
		t.Fatalf("NumPOIs %d → %d", n, s.NumPOIs())
	}
	after, _, _, err := s.Plan(users, nil)
	if err != nil || after != before {
		t.Fatalf("plan moved from %v to %v (err %v)", before, after, err)
	}
}

// TestNetRangeServerParallel hammers a network-backed incremental server
// from many goroutines; run with -race.
func TestNetRangeServerParallel(t *testing.T) {
	net := testRoadNet(t)
	s, err := NewServer(nil,
		WithRoadNetwork(net, netPOINodes(net, 9)),
		WithIncremental(),
		WithShards(4))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	const groups, writers, rounds = 12, 6, 10
	gs := make([]*Group, groups)
	for i := range gs {
		base := Pt(0.2+0.05*float64(i%5), 0.2+0.05*float64(i/5))
		g, err := s.Register([]Point{base, Pt(base.X+0.02, base.Y+0.01)}, nil)
		if err != nil {
			t.Fatal(err)
		}
		gs[i] = g
	}
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for r := 0; r < rounds; r++ {
				g := gs[rng.Intn(groups)]
				switch rng.Intn(3) {
				case 0:
					locs := []Point{
						Pt(0.2+0.6*rng.Float64(), 0.2+0.6*rng.Float64()),
						Pt(0.2+0.6*rng.Float64(), 0.2+0.6*rng.Float64()),
					}
					if err := g.Update(locs, nil); err != nil {
						t.Error(err)
						return
					}
				case 1:
					g.NeedsUpdate(0, Pt(rng.Float64(), rng.Float64()))
				default:
					if regions := g.Regions(); len(regions) != 2 {
						t.Errorf("got %d regions", len(regions))
						return
					}
				}
			}
		}(int64(100 + w))
	}
	wg.Wait()
}

// TestNetRegionProtoInterop pins that the protocol layer ships network
// regions with the same bytes as the public codec and decodes them back.
func TestNetRegionProtoInterop(t *testing.T) {
	net := testRoadNet(t)
	s, err := NewServer(nil, WithRoadNetwork(net, netPOINodes(net, 9)))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	users := []Point{Pt(0.5, 0.5), Pt(0.53, 0.48)}
	_, regions, _, err := s.Plan(users, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range regions {
		pub := EncodeRegion(r)
		wire := proto.EncodeRegion(r)
		if !bytes.Equal(pub, wire) {
			t.Fatalf("region %d: public and proto encodings differ", i)
		}
		dec, err := proto.DecodeRegion(wire)
		if err != nil {
			t.Fatal(err)
		}
		if dec.Net == nil || !dec.Net.EqualRegion(r.Net) {
			t.Fatalf("region %d: proto round trip changed the region", i)
		}
		if _, err := proto.DecodeRegion(wire[:len(wire)-3]); err == nil {
			t.Fatalf("region %d: truncated payload accepted", i)
		}
	}
}
