package mpn

import (
	"errors"
	"testing"
	"time"
)

// The public shutdown surface: once Close returns, group operations
// return ErrServerClosed, and the sentinel composes with errors.Is.
func TestCloseErrors(t *testing.T) {
	srv, err := NewServer(testPOIs(400, 3), WithShards(1), WithCloseTimeout(time.Second))
	if err != nil {
		t.Fatal(err)
	}
	users := []Point{Pt(0.30, 0.30), Pt(0.32, 0.31)}
	g, err := srv.Register(users, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := g.SubmitUpdate([]Point{Pt(0.31, 0.31), Pt(0.33, 0.32)}, nil); err != nil {
		t.Fatalf("submit: %v", err)
	}

	srv.Close()
	if err := g.SubmitUpdate(users, nil); !errors.Is(err, ErrServerClosed) {
		t.Fatalf("post-Close submit: %v", err)
	}
	if err := g.Update(users, nil); !errors.Is(err, ErrServerClosed) {
		t.Fatalf("post-Close update: %v", err)
	}
}
