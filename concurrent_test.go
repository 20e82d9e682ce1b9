package mpn

// Concurrency and property tests for the engine-backed public API: many
// groups hammered from many goroutines (run with -race), the asynchronous
// SubmitUpdate/Subscribe path, the engine options, and a testing/quick
// property asserting the paper's core invariant — after every update,
// each user's current location lies inside her own safe region.

import (
	"math/rand"
	"reflect"
	"sync"
	"testing"
	"testing/quick"
	"time"
)

func TestEngineOptions(t *testing.T) {
	s, err := NewServer(testPOIs(200, 30),
		WithShards(4), WithWorkers(2))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	for i, o := range []Option{WithShards(0), WithWorkers(0)} {
		if _, err := NewServer(testPOIs(5, 31), o); err == nil {
			t.Fatalf("bad engine option %d accepted", i)
		}
	}
}

// TestManyGroupsParallel exercises shard contention: parallel Update /
// NeedsUpdate / Regions / MeetingPoint across many groups and goroutines.
func TestManyGroupsParallel(t *testing.T) {
	s, err := NewServer(testPOIs(600, 32), WithMethod(Circle), WithShards(4))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	const groups, writers, rounds = 24, 6, 12
	gs := make([]*Group, groups)
	for i := range gs {
		g, err := s.Register([]Point{Pt(0.3, 0.3), Pt(0.35, 0.32)}, nil)
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
						Pt(rng.Float64(), rng.Float64()),
						Pt(rng.Float64(), rng.Float64()),
					}
					if err := g.Update(locs, nil); err != nil {
						t.Error(err)
						return
					}
				case 1:
					locs := []Point{
						Pt(rng.Float64(), rng.Float64()),
						Pt(rng.Float64(), rng.Float64()),
					}
					if err := g.SubmitUpdate(locs, nil); err != nil {
						t.Error(err)
						return
					}
				default:
					_ = g.MeetingPoint()
					_ = g.NeedsUpdate(0, Pt(rng.Float64(), rng.Float64()))
					_ = g.Regions()
					_ = g.Stats()
				}
			}
		}(int64(w))
	}
	wg.Wait()
	for i, g := range gs {
		if g.Updates() < 1 {
			t.Fatalf("group %d lost its registration plan", i)
		}
	}
}

// TestSubmitUpdateNotifies drives the asynchronous path end to end
// through the public API.
func TestSubmitUpdateNotifies(t *testing.T) {
	s, err := NewServer(testPOIs(500, 33), WithMethod(TileDirected), WithTileLimit(5))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	sub := s.Subscribe(16)
	defer sub.Close()
	users := []Point{Pt(0.3, 0.3), Pt(0.34, 0.31)}
	g, err := s.Register(users, nil)
	if err != nil {
		t.Fatal(err)
	}
	n := <-sub.C
	if n.Group != g.ID() || n.Seq != 1 {
		t.Fatalf("bad registration notification %+v", n)
	}
	moved := []Point{Pt(0.6, 0.6), Pt(0.63, 0.58)}
	if err := g.SubmitUpdate(moved, nil); err != nil {
		t.Fatal(err)
	}
	select {
	case n := <-sub.C:
		if n.Group != g.ID() || n.Seq != 2 {
			t.Fatalf("bad async notification %+v", n)
		}
		for i, u := range moved {
			if !n.Regions[i].Contains(u) {
				t.Fatalf("async region %d misses its user", i)
			}
		}
	case <-time.After(10 * time.Second):
		t.Fatal("no async notification")
	}
	if err := g.SubmitUpdate(moved[:1], nil); err == nil {
		t.Fatal("size mismatch accepted")
	}
	g.Unregister()
	if !g.NeedsUpdate(0, moved[0]) {
		t.Fatal("unregistered group must be conservative")
	}
	if err := g.SubmitUpdate(moved, nil); err == nil {
		t.Fatal("submit to unregistered group accepted")
	}
}

// quickGroup is a random group of 1–5 users in the unit square, shaped
// for testing/quick.
type quickGroup struct {
	Users []Point
}

// Generate implements quick.Generator: sizes and coordinates stay inside
// the POI domain so every plan is feasible.
func (quickGroup) Generate(rng *rand.Rand, _ int) reflect.Value {
	m := 1 + rng.Intn(5)
	users := make([]Point, m)
	for i := range users {
		users[i] = Pt(0.05+0.9*rng.Float64(), 0.05+0.9*rng.Float64())
	}
	return reflect.ValueOf(quickGroup{Users: users})
}

// TestQuickLocationInsideOwnRegion is the paper's safe-region soundness
// property as a quick check: whatever the group looks like and wherever
// it moves, after an update each user's current location is inside her
// own safe region (Definition 3 requires regions to cover the users they
// were computed for).
func TestQuickLocationInsideOwnRegion(t *testing.T) {
	pois := testPOIs(700, 34)
	for _, method := range []Method{Circle, Tile, TileDirected} {
		s, err := NewServer(pois, WithMethod(method), WithTileLimit(4), WithBuffer(10))
		if err != nil {
			t.Fatal(err)
		}
		property := func(first, second quickGroup) bool {
			g, err := s.Register(first.Users, nil)
			if err != nil {
				return false
			}
			defer g.Unregister()
			for i, u := range first.Users {
				if !g.Region(i).Contains(u) || g.NeedsUpdate(i, u) {
					return false
				}
			}
			// Move everyone (reusing the first group's size) and update.
			moved := make([]Point, len(first.Users))
			for i := range moved {
				moved[i] = second.Users[i%len(second.Users)]
			}
			if err := g.Update(moved, nil); err != nil {
				return false
			}
			for i, u := range moved {
				if !g.Region(i).Contains(u) || g.NeedsUpdate(i, u) {
					return false
				}
			}
			return true
		}
		cfg := &quick.Config{MaxCount: 25, Rand: rand.New(rand.NewSource(int64(method) + 99))}
		if err := quick.Check(property, cfg); err != nil {
			t.Fatalf("%v: %v", method, err)
		}
		s.Close()
	}
}
