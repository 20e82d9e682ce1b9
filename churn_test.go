package mpn

import (
	"sync"
	"testing"
)

// TestServerPOIChurn exercises the public mutation API end to end:
// inserts and deletes change what groups see, batched mutations are
// atomic, and validation failures apply nothing.
func TestServerPOIChurn(t *testing.T) {
	s, err := NewServer(testPOIs(600, 41),
		WithTileLimit(6), WithBuffer(20),
		WithIncremental())
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	users := []Point{Pt(0.4, 0.4), Pt(0.42, 0.39)}
	g, err := s.Register(users, nil)
	if err != nil {
		t.Fatal(err)
	}

	// An insert between the users must become the optimum at the next
	// update.
	id := s.InsertPOI(Pt(0.41, 0.395))
	if id != 600 || s.NumPOIs() != 601 {
		t.Fatalf("id=%d NumPOIs=%d", id, s.NumPOIs())
	}
	if err := g.Update(users, nil); err != nil {
		t.Fatal(err)
	}
	if mp := g.MeetingPoint(); mp != Pt(0.41, 0.395) {
		t.Fatalf("inserted POI not the meeting point: %v", mp)
	}

	// Deleting it must hand the optimum back to the original set.
	if !s.DeletePOI(id) {
		t.Fatal("DeletePOI failed")
	}
	if s.DeletePOI(id) {
		t.Fatal("double delete succeeded")
	}
	if err := g.Update(users, nil); err != nil {
		t.Fatal(err)
	}
	if mp := g.MeetingPoint(); mp == Pt(0.41, 0.395) {
		t.Fatal("deleted POI still the meeting point")
	}

	// Batched mutation: applied atomically, ids returned in order.
	ids, err := s.UpdatePOIs([]Point{Pt(0.1, 0.1), Pt(0.9, 0.9)}, []int{0, 1})
	if err != nil || len(ids) != 2 || ids[0] != 601 || ids[1] != 602 {
		t.Fatalf("UpdatePOIs ids=%v err=%v", ids, err)
	}
	if s.NumPOIs() != 600 {
		t.Fatalf("NumPOIs=%d after balanced batch", s.NumPOIs())
	}

	// Invalid batches are rejected as a whole.
	if _, err := s.UpdatePOIs([]Point{Pt(0.5, 0.5)}, []int{0}); err == nil {
		t.Fatal("delete of already-deleted id accepted")
	}
	if _, err := s.UpdatePOIs(nil, []int{10, 10}); err == nil {
		t.Fatal("duplicate delete ids accepted")
	}
	if s.NumPOIs() != 600 {
		t.Fatalf("rejected batches changed NumPOIs: %d", s.NumPOIs())
	}
}

// TestServerChurnConcurrent races the public mutation API against
// group updates; meaningful mainly under -race.
func TestServerChurnConcurrent(t *testing.T) {
	s, err := NewServer(testPOIs(1000, 43),
		WithTileLimit(4), WithBuffer(10),
		WithIncremental())
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	users := []Point{Pt(0.5, 0.5), Pt(0.51, 0.49), Pt(0.49, 0.52)}
	g, err := s.Register(users, nil)
	if err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		for i := 0; i < 40; i++ {
			if err := g.Update(users, nil); err != nil {
				t.Errorf("update: %v", err)
				return
			}
		}
	}()
	go func() {
		defer wg.Done()
		var last int
		for i := 0; i < 40; i++ {
			var del []int
			if last != 0 {
				del = []int{last}
			}
			ids, err := s.UpdatePOIs([]Point{Pt(0.8, 0.2)}, del)
			if err != nil {
				t.Errorf("mutate: %v", err)
				return
			}
			last = ids[0]
		}
	}()
	wg.Wait()

	if err := g.Update(users, nil); err != nil {
		t.Fatal(err)
	}
	for i, u := range users {
		if !g.Region(i).Contains(u) {
			t.Fatalf("region %d misses its user after churn", i)
		}
	}
}
