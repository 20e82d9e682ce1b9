package mpn

import (
	"math/rand"
	"reflect"
	"testing"
)

// TestWithSharedGNNCacheDifferential: a server with the shared GNN
// cache must produce byte-identical meeting points and regions to an
// uncached server over the same co-located multi-group workload, and
// its cache must report cross-group hits.
func TestWithSharedGNNCacheDifferential(t *testing.T) {
	pois := testPOIs(3000, 7)
	build := func(opts ...Option) *Server {
		s, err := NewServer(pois, append([]Option{
			WithTileLimit(5), WithBuffer(10), WithIncremental(),
		}, opts...)...)
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	cached := build(WithSharedGNNCache(4 << 20))
	defer cached.Close()
	plain := build()
	defer plain.Close()

	if _, ok := plain.GNNCacheStats(); ok {
		t.Fatal("uncached server reports cache stats")
	}

	rng := rand.New(rand.NewSource(3))
	const G = 6
	users := make([][]Point, G)
	cg := make([]*Group, G)
	pg := make([]*Group, G)
	for g := 0; g < G; g++ {
		users[g] = []Point{
			Pt(0.4+0.001*float64(g), 0.4),
			Pt(0.401, 0.399+0.001*float64(g)),
		}
		var err error
		if cg[g], err = cached.Register(users[g], nil); err != nil {
			t.Fatal(err)
		}
		if pg[g], err = plain.Register(users[g], nil); err != nil {
			t.Fatal(err)
		}
	}
	for step := 0; step < 20; step++ {
		for g := 0; g < G; g++ {
			for i := range users[g] {
				users[g][i] = Pt(users[g][i].X+1e-4*(rng.Float64()-0.5), users[g][i].Y+1e-4*(rng.Float64()-0.5))
			}
			if err := cg[g].Update(users[g], nil); err != nil {
				t.Fatal(err)
			}
			if err := pg[g].Update(users[g], nil); err != nil {
				t.Fatal(err)
			}
			if cg[g].MeetingPoint() != pg[g].MeetingPoint() {
				t.Fatalf("step %d group %d: meeting points diverged", step, g)
			}
			if !reflect.DeepEqual(cg[g].Regions(), pg[g].Regions()) {
				t.Fatalf("step %d group %d: regions diverged", step, g)
			}
		}
	}
	st, ok := cached.GNNCacheStats()
	if !ok {
		t.Fatal("cached server lost its cache")
	}
	if st.Hits == 0 {
		t.Fatalf("no cross-group hits on a co-located workload: %+v", st)
	}
}

// TestWithSharedGNNCacheValidation: a non-positive budget is rejected.
func TestWithSharedGNNCacheValidation(t *testing.T) {
	if _, err := NewServer(testPOIs(50, 1), WithSharedGNNCache(0)); err == nil {
		t.Fatal("zero cache budget accepted")
	}
}
