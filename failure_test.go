package mpn

import (
	"errors"
	"testing"
	"time"
)

// The public failure-semantics surface: fail-fast admission sheds with
// ErrOverloaded and counts it in Counters, post-Close operations
// return ErrServerClosed, and both sentinels compose with errors.Is.
func TestAdmissionAndCloseErrors(t *testing.T) {
	srv, err := NewServer(testPOIs(400, 3),
		WithShards(1), WithQueueDepth(1),
		WithAdmissionWait(-1), // fail-fast: shed instead of waiting
		WithCloseTimeout(time.Second))
	if err != nil {
		t.Fatal(err)
	}
	users := []Point{Pt(0.30, 0.30), Pt(0.32, 0.31)}
	g, err := srv.Register(users, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Register more groups than the depth-1 queue can hold and submit
	// from all of them back to back: with one worker busy at most one
	// submission can queue, so the burst must shed at least once.
	groups := []*Group{g}
	for i := 0; i < 8; i++ {
		off := 0.05 * float64(i+1)
		g2, err := srv.Register([]Point{Pt(0.3+off, 0.3), Pt(0.31+off, 0.31)}, nil)
		if err != nil {
			t.Fatal(err)
		}
		groups = append(groups, g2)
	}
	sawOverload := false
	for round := 0; round < 50 && !sawOverload; round++ {
		for _, g := range groups {
			err := g.SubmitUpdate([]Point{Pt(0.31, 0.31), Pt(0.33, 0.32)}, nil)
			if errors.Is(err, ErrOverloaded) {
				sawOverload = true
			} else if err != nil {
				t.Fatalf("submit: %v", err)
			}
		}
	}
	if !sawOverload {
		t.Fatal("fail-fast admission never shed a submission")
	}
	if srv.Counters().Shed == 0 {
		t.Fatal("shed submission not counted in Counters")
	}

	srv.Close()
	err = g.SubmitUpdate(users, nil)
	if !errors.Is(err, ErrServerClosed) {
		t.Fatalf("post-Close submit: %v", err)
	}
}
