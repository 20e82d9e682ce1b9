package durable

import (
	"os"
	"testing"
	"time"

	"mpn/internal/faultinject"
	"mpn/internal/geom"
)

// TestReopenAfterTransientWriteError: a transient disk write error
// (WALWrite Fail) must not wedge the store for the process lifetime —
// the writer rebuilds a fresh snapshot+log pair from its mirror and
// keeps accepting records, counting the recovery in Stats.Reopens.
func TestReopenAfterTransientWriteError(t *testing.T) {
	dir := t.TempDir()
	loc := []geom.Point{geom.Pt(0.5, 0.5)}
	s, _ := openStore(t, dir, Config{
		Fsync: PolicyAlways, ReopenAttempts: 3, ReopenBackoff: time.Millisecond,
	})
	s.GroupUpsert(1, []uint32{1}, loc)
	waitFor(t, "first append", func() bool { return s.Stats().Appended == 1 })

	faultinject.Arm(faultinject.Script{
		faultinject.WALWrite: func(hit uint64) faultinject.Effect {
			if hit == 1 {
				return faultinject.Effect{Fail: true}
			}
			return faultinject.Effect{}
		},
	})
	defer faultinject.Disarm()

	// This record hits the injected write error and is shed; the store
	// must reopen rather than stay wedged.
	s.GroupUpsert(2, []uint32{2}, loc)
	waitFor(t, "reopen", func() bool {
		st := s.Stats()
		return st.Reopens == 1 && !st.Wedged
	})

	// Post-reopen records must land durably.
	s.GroupUpsert(3, []uint32{3}, loc)
	waitFor(t, "post-reopen append", func() bool { return s.Stats().Appended >= 2 })
	s.Close()

	st, _, err := Recover(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := st.Groups[1]; !ok {
		t.Fatal("pre-fault group lost across reopen")
	}
	if _, ok := st.Groups[3]; !ok {
		t.Fatal("post-reopen group lost")
	}
	if _, ok := st.Groups[2]; ok {
		t.Fatal("shed record resurrected")
	}
}

// TestReopenExhaustionWedgesPermanently: when every reopen attempt
// fails (the state directory is gone), the store must give up after the
// configured cap and stay wedged instead of retrying forever.
func TestReopenExhaustionWedgesPermanently(t *testing.T) {
	dir := t.TempDir()
	loc := []geom.Point{geom.Pt(0.5, 0.5)}
	s, _ := openStore(t, dir, Config{
		Fsync: PolicyAlways, ReopenAttempts: 2, ReopenBackoff: time.Millisecond,
	})
	s.GroupUpsert(1, []uint32{1}, loc)
	waitFor(t, "append", func() bool { return s.Stats().Appended == 1 })

	// Every flush fails, and the missing directory makes every rotate
	// (snapshot rebuild) fail too.
	if err := os.RemoveAll(dir); err != nil {
		t.Fatal(err)
	}
	faultinject.Arm(faultinject.Script{
		faultinject.WALWrite: func(uint64) faultinject.Effect { return faultinject.Effect{Fail: true} },
	})
	defer faultinject.Disarm()

	s.GroupUpsert(2, []uint32{2}, loc)
	waitFor(t, "permanent wedge", func() bool {
		st := s.Stats()
		return st.Wedged && st.Errors >= 3 // 1 write fail + 2 failed reopens
	})
	if s.Stats().Reopens != 0 {
		t.Fatalf("reopen claimed success with no directory: %+v", s.Stats())
	}
	// Further records shed without waking the reopen loop again.
	before := s.Stats().Shed
	s.GroupUpsert(3, []uint32{3}, loc)
	waitFor(t, "shed while wedged", func() bool { return s.Stats().Shed > before })
	s.Close()
}

// TestStreamFromSeedAndTail: StreamFrom's clone must be consistent with
// its position, and applying the tail records it delivers must
// reproduce exactly the state a recovery would see.
func TestStreamFromSeedAndTail(t *testing.T) {
	dir := t.TempDir()
	loc := []geom.Point{geom.Pt(0.5, 0.5)}
	s, _ := openStore(t, dir, Config{Fsync: PolicyAlways})
	for i := 1; i <= 3; i++ {
		s.GroupUpsert(uint32(i), []uint32{uint32(i)}, loc)
	}
	waitFor(t, "3 records applied", func() bool { return s.StreamPos() == 3 })

	seed, pos, sub := s.StreamFrom(16)
	defer sub.Close()
	if pos != 3 || len(seed.Groups) != 3 {
		t.Fatalf("seed: pos=%d groups=%d", pos, len(seed.Groups))
	}

	s.GroupUpsert(4, []uint32{4}, loc)
	s.GroupUnregister(1)
	want := pos
	for i := 0; i < 2; i++ {
		select {
		case rec, ok := <-sub.C:
			if !ok {
				t.Fatalf("stream closed early (lagged=%v)", sub.Lagged())
			}
			want++
			if rec.Pos != want {
				t.Fatalf("record pos %d, want %d", rec.Pos, want)
			}
			if err := seed.Apply(rec.Payload); err != nil {
				t.Fatalf("apply tail record: %v", err)
			}
		case <-time.After(5 * time.Second):
			t.Fatal("tail record never arrived")
		}
	}
	s.Close()

	st, _, err := Recover(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(seed.Groups) != len(st.Groups) {
		t.Fatalf("tailed state has %d groups, recovery %d", len(seed.Groups), len(st.Groups))
	}
	for gid := range st.Groups {
		if _, ok := seed.Groups[gid]; !ok {
			t.Fatalf("tailed state missing group %d", gid)
		}
	}
}

// TestStreamLagCutsSubscriber: a subscriber that stops draining must be
// cut (channel closed, Lagged reported) instead of blocking the writer
// or buffering without bound.
func TestStreamLagCutsSubscriber(t *testing.T) {
	dir := t.TempDir()
	loc := []geom.Point{geom.Pt(0.5, 0.5)}
	s, _ := openStore(t, dir, Config{Fsync: PolicyAlways})
	_, _, sub := s.StreamFrom(1)
	for i := 0; i < 10; i++ {
		s.GroupUpsert(uint32(i), []uint32{1}, loc)
	}
	waitFor(t, "all appended", func() bool { return s.Stats().Appended == 10 })

	// Drain whatever landed; the channel must be closed after at most
	// buffer-many records.
	n := 0
	for range sub.C {
		n++
	}
	if n > 1 {
		t.Fatalf("buffered %d records past a 1-deep buffer", n)
	}
	if !sub.Lagged() {
		t.Fatal("cut subscriber not marked lagged")
	}
	s.Close()
}

// TestEpochRoundTrip: a journaled fencing epoch must survive recovery,
// compaction (the snapshot carries it), and a follower-style
// AppendStateFrames replay; a regressing epoch record must be rejected.
func TestEpochRoundTrip(t *testing.T) {
	dir := t.TempDir()
	loc := []geom.Point{geom.Pt(0.5, 0.5)}
	s, _ := openStore(t, dir, Config{Fsync: PolicyAlways, CompactAt: 64})
	s.EpochRecord(7)
	for i := 0; i < 5; i++ {
		s.GroupUpsert(uint32(i), []uint32{1}, loc)
	}
	waitFor(t, "compaction with epoch", func() bool { return s.Stats().Compactions >= 1 })
	s.Close()

	st, _, err := Recover(dir)
	if err != nil {
		t.Fatal(err)
	}
	if st.Epoch != 7 {
		t.Fatalf("epoch after recovery: %d", st.Epoch)
	}

	// A seed built from AppendStateFrames must restore the epoch too.
	frames := AppendStateFrames(nil, st)
	replica := NewState()
	for len(frames) > 0 {
		payload, size, ok := nextFrame(frames)
		if !ok {
			t.Fatal("torn frame in state serialization")
		}
		if err := replica.Apply(payload); err != nil {
			t.Fatalf("apply state frame: %v", err)
		}
		frames = frames[size:]
	}
	if replica.Epoch != 7 {
		t.Fatalf("epoch after state replay: %d", replica.Epoch)
	}

	// Monotonicity: a lower epoch is a corrupt or replayed-stale record.
	if err := replica.Apply(AppendEpochRecord(nil, 3)); err == nil {
		t.Fatal("regressing epoch accepted")
	}
	if err := replica.Apply(AppendEpochRecord(nil, 9)); err != nil || replica.Epoch != 9 {
		t.Fatalf("advancing epoch rejected: %v epoch=%d", err, replica.Epoch)
	}
}
