package durable

import (
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"sync"
	"testing"
	"time"

	"mpn/internal/faultinject"
	"mpn/internal/geom"
)

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

func openStore(t *testing.T, dir string, cfg Config) (*Store, *State) {
	t.Helper()
	cfg.Dir = dir
	if cfg.POIBase == 0 {
		cfg.POIBase = -1
	}
	s, st, _, err := Open(cfg)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	return s, st
}

// TestRoundTrip: a mixed record stream written through the store must
// recover exactly — group upserts (registration and update collapse to
// the last write), unregistrations, and POI batches.
func TestRoundTrip(t *testing.T) {
	dir := t.TempDir()
	s, st := openStore(t, dir, Config{Fsync: PolicyAlways, POIBase: 100})
	if len(st.Groups) != 0 || st.POIBase != 100 {
		t.Fatalf("fresh state: %+v", st)
	}

	s.GroupUpsert(7, []uint32{1, 2}, []geom.Point{geom.Pt(0.1, 0.2), geom.Pt(0.3, 0.4)})
	s.GroupUpsert(9, []uint32{5}, []geom.Point{geom.Pt(0.9, 0.9)})
	s.GroupUpsert(7, []uint32{1, 2}, []geom.Point{geom.Pt(0.15, 0.25), geom.Pt(0.35, 0.45)})
	s.POIBatch(100, []geom.Point{geom.Pt(0.5, 0.5), geom.Pt(0.6, 0.6)}, []int{3})
	s.POIBatch(102, nil, []int{101})
	s.GroupUnregister(9)
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	got, info, err := Recover(dir)
	if err != nil {
		t.Fatalf("Recover: %v", err)
	}
	if info.TornBytes != 0 || info.LogRecords != 6 {
		t.Fatalf("info: %+v", info)
	}
	if len(got.Groups) != 1 {
		t.Fatalf("groups: %+v", got.Groups)
	}
	g := got.Groups[7]
	if !reflect.DeepEqual(g.IDs, []uint32{1, 2}) ||
		g.Locs[0] != geom.Pt(0.15, 0.25) || g.Locs[1] != geom.Pt(0.35, 0.45) {
		t.Fatalf("group 7: %+v", g)
	}
	if got.POIBase != 100 || len(got.POIInserts) != 2 ||
		!reflect.DeepEqual(got.POIDeleted, []int{3, 101}) {
		t.Fatalf("POIs: base=%d ins=%v del=%v", got.POIBase, got.POIInserts, got.POIDeleted)
	}
}

// TestTornTail: garbage appended to a valid log must be truncated —
// in-memory by Recover, on disk by Open — and the valid prefix kept.
func TestTornTail(t *testing.T) {
	dir := t.TempDir()
	s, _ := openStore(t, dir, Config{Fsync: PolicyAlways})
	s.GroupUpsert(1, []uint32{1}, []geom.Point{geom.Pt(0.1, 0.1)})
	s.GroupUpsert(2, []uint32{2}, []geom.Point{geom.Pt(0.2, 0.2)})
	s.Close()

	path := walName(dir, 1)
	for _, garbage := range [][]byte{
		{0xff},                         // torn header
		{9, 0, 0, 0, 1, 2, 3, 4, 5},    // frame header promising more than present
		{1, 0, 0, 0, 0, 0, 0, 0, 0x42}, // whole frame, wrong CRC
	} {
		clean, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0)
		if err != nil {
			t.Fatal(err)
		}
		f.Write(garbage)
		f.Close()

		st, info, err := Recover(dir)
		if err != nil {
			t.Fatalf("Recover with garbage %v: %v", garbage, err)
		}
		if info.TornBytes != int64(len(garbage)) || len(st.Groups) != 2 {
			t.Fatalf("garbage %v: torn=%d groups=%d", garbage, info.TornBytes, len(st.Groups))
		}

		// Open must truncate the tail and keep appending cleanly.
		s2, st2 := openStore(t, dir, Config{Fsync: PolicyAlways})
		if len(st2.Groups) != 2 {
			t.Fatalf("Open after garbage: groups=%d", len(st2.Groups))
		}
		s2.GroupUpsert(3, []uint32{3}, []geom.Point{geom.Pt(0.3, 0.3)})
		waitFor(t, "append", func() bool { return s2.Stats().Appended == 1 })
		s2.Close()
		st3, info3, err := Recover(dir)
		if err != nil || info3.TornBytes != 0 || len(st3.Groups) != 3 {
			t.Fatalf("after truncate+append: %v %+v groups=%d", err, info3, len(st3.Groups))
		}
		// Drop group 3 again and restore the pre-garbage file so the
		// next garbage flavor starts from the same clean log.
		if err := os.WriteFile(path, clean, 0o644); err != nil {
			t.Fatal(err)
		}
	}

	// A destroyed magic means an empty valid prefix, not an error.
	if err := os.WriteFile(path, []byte("NOTAWAL!"), 0o644); err != nil {
		t.Fatal(err)
	}
	st, info, err := Recover(dir)
	if err != nil || len(st.Groups) != 0 || info.LogBytes != 0 {
		t.Fatalf("bad magic: %v %+v", err, info)
	}
	s4, _ := openStore(t, dir, Config{Fsync: PolicyAlways})
	s4.GroupUpsert(9, []uint32{9}, []geom.Point{geom.Pt(0.9, 0.9)})
	waitFor(t, "append", func() bool { return s4.Stats().Appended == 1 })
	s4.Close()
	st, _, err = Recover(dir)
	if err != nil || len(st.Groups) != 1 {
		t.Fatalf("restarted log: %v groups=%d", err, len(st.Groups))
	}
}

// TestCrashFsyncSemantics pins the deterministic loss model of each
// policy: always keeps everything the writer wrote, off keeps nothing
// unsynced, and a clean Close keeps everything regardless of policy.
func TestCrashFsyncSemantics(t *testing.T) {
	loc := []geom.Point{geom.Pt(0.5, 0.5)}

	t.Run("always-survives-crash", func(t *testing.T) {
		dir := t.TempDir()
		s, _ := openStore(t, dir, Config{Fsync: PolicyAlways})
		s.GroupUpsert(1, []uint32{1}, loc)
		waitFor(t, "sync", func() bool { st := s.Stats(); return st.Appended == 1 && st.Syncs >= 1 })
		s.Crash()
		st, _, err := Recover(dir)
		if err != nil || len(st.Groups) != 1 {
			t.Fatalf("always: %v groups=%d", err, len(st.Groups))
		}
	})

	t.Run("off-loses-unsynced", func(t *testing.T) {
		dir := t.TempDir()
		s, _ := openStore(t, dir, Config{Fsync: PolicyOff})
		s.GroupUpsert(1, []uint32{1}, loc)
		waitFor(t, "append", func() bool { return s.Stats().Appended == 1 })
		s.Crash()
		st, _, err := Recover(dir)
		if err != nil || len(st.Groups) != 0 {
			t.Fatalf("off: %v groups=%d", err, len(st.Groups))
		}
	})

	t.Run("off-survives-clean-close", func(t *testing.T) {
		dir := t.TempDir()
		s, _ := openStore(t, dir, Config{Fsync: PolicyOff})
		s.GroupUpsert(1, []uint32{1}, loc)
		s.Close()
		st, _, err := Recover(dir)
		if err != nil || len(st.Groups) != 1 {
			t.Fatalf("off+close: %v groups=%d", err, len(st.Groups))
		}
	})

	t.Run("interval-bounded-loss", func(t *testing.T) {
		dir := t.TempDir()
		s, _ := openStore(t, dir, Config{Fsync: PolicyInterval, Interval: time.Millisecond})
		s.GroupUpsert(1, []uint32{1}, loc)
		waitFor(t, "interval sync", func() bool { st := s.Stats(); return st.Appended == 1 && st.Syncs >= 1 })
		s.GroupUpsert(2, []uint32{2}, loc)
		s.Crash()
		st, _, err := Recover(dir)
		if err != nil {
			t.Fatal(err)
		}
		if _, ok := st.Groups[1]; !ok {
			t.Fatal("interval: synced group lost")
		}
		// Group 2 may or may not have made the last sync — both are
		// within the policy's contract; what is not allowed is damage.
		if len(st.Groups) > 2 {
			t.Fatalf("interval: %d groups", len(st.Groups))
		}
	})
}

// TestCompaction: once the log passes CompactAt the store must fold it
// into a snapshot, start a fresh log, delete the old pair, and recover
// the identical state from the new pair.
func TestCompaction(t *testing.T) {
	dir := t.TempDir()
	s, _ := openStore(t, dir, Config{Fsync: PolicyAlways, CompactAt: 2048, POIBase: 10})
	for i := 0; i < 200; i++ {
		gid := uint32(i % 5)
		s.GroupUpsert(gid, []uint32{gid * 10}, []geom.Point{geom.Pt(float64(i)/200, 0.5)})
	}
	s.POIBatch(10, []geom.Point{geom.Pt(0.7, 0.7)}, []int{4})
	waitFor(t, "compaction", func() bool { return s.Stats().Compactions >= 1 })
	s.GroupUnregister(4)
	s.Close()

	snaps, wals, err := scanDir(dir)
	if err != nil || len(snaps) != 1 || len(wals) != 1 || snaps[0] != wals[0] || snaps[0] < 2 {
		t.Fatalf("dir after compaction: snaps=%v wals=%v err=%v", snaps, wals, err)
	}

	st, info, err := Recover(dir)
	if err != nil {
		t.Fatalf("Recover: %v", err)
	}
	if info.SnapshotSeq != snaps[0] {
		t.Fatalf("recovered from seq %d, want %d", info.SnapshotSeq, snaps[0])
	}
	if len(st.Groups) != 4 {
		t.Fatalf("groups after compaction: %d (%v)", len(st.Groups), st.Groups)
	}
	if st.POIBase != 10 || len(st.POIInserts) != 1 || !reflect.DeepEqual(st.POIDeleted, []int{4}) {
		t.Fatalf("POIs: %+v", st)
	}
	for gid := uint32(0); gid < 4; gid++ {
		g, ok := st.Groups[gid]
		if !ok || len(g.IDs) != 1 || g.IDs[0] != gid*10 {
			t.Fatalf("group %d: %+v ok=%v", gid, g, ok)
		}
	}
}

// TestCorruptSnapshotIsTyped: damage inside a snapshot file — which is
// written atomically and can never be a torn tail — must surface as
// ErrCorruptSnapshot, never as silently recovered phantom state.
func TestCorruptSnapshotIsTyped(t *testing.T) {
	dir := t.TempDir()
	s, _ := openStore(t, dir, Config{Fsync: PolicyAlways, CompactAt: 512})
	for i := 0; i < 100; i++ {
		s.GroupUpsert(uint32(i), []uint32{1}, []geom.Point{geom.Pt(0.1, 0.2)})
	}
	waitFor(t, "compaction", func() bool { return s.Stats().Compactions >= 1 })
	s.Close()

	snaps, _, _ := scanDir(dir)
	path := snapName(dir, snaps[len(snaps)-1])
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	b[len(b)/2] ^= 0xff
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := Recover(dir); !errors.Is(err, ErrCorruptSnapshot) {
		t.Fatalf("corrupt snapshot: err=%v", err)
	}
	if _, _, _, err := Open(Config{Dir: dir, POIBase: -1}); !errors.Is(err, ErrCorruptSnapshot) {
		t.Fatalf("Open on corrupt snapshot: err=%v", err)
	}
}

// TestWALFailpoints drives the injected fault paths: a short write
// leaves a torn frame recovery truncates; a dropped frame is shed; a
// sync panic is absorbed as crash-before-fsync (records since the last
// sync are lost, earlier ones survive, the process does not die).
func TestWALFailpoints(t *testing.T) {
	loc := []geom.Point{geom.Pt(0.5, 0.5)}

	t.Run("short-write-torn-frame", func(t *testing.T) {
		dir := t.TempDir()
		s, _ := openStore(t, dir, Config{Fsync: PolicyAlways})
		s.GroupUpsert(1, []uint32{1}, loc)
		waitFor(t, "first append", func() bool { return s.Stats().Appended == 1 })
		faultinject.Arm(faultinject.Script{
			faultinject.WALAppend: func(hit uint64) faultinject.Effect {
				if hit == 1 { // second record overall: first after arming
					return faultinject.Effect{ShortWrite: 5}
				}
				return faultinject.Effect{}
			},
		})
		defer faultinject.Disarm()
		s.GroupUpsert(2, []uint32{2}, loc)
		waitFor(t, "wedge", func() bool { return s.Stats().Wedged })
		// Wedged: later records shed, not written.
		s.GroupUpsert(3, []uint32{3}, loc)
		waitFor(t, "shed", func() bool { return s.Stats().Shed >= 2 })
		s.Close()

		st, info, err := Recover(dir)
		if err != nil {
			t.Fatal(err)
		}
		if info.TornBytes != 5 {
			t.Fatalf("torn bytes: %+v", info)
		}
		if len(st.Groups) != 1 {
			t.Fatalf("groups: %v", st.Groups)
		}
		if _, ok := st.Groups[1]; !ok {
			t.Fatal("pre-fault group lost")
		}
	})

	t.Run("drop", func(t *testing.T) {
		dir := t.TempDir()
		s, _ := openStore(t, dir, Config{Fsync: PolicyAlways})
		faultinject.Arm(faultinject.Script{
			faultinject.WALAppend: func(hit uint64) faultinject.Effect {
				if hit == 1 {
					return faultinject.Effect{Drop: true}
				}
				return faultinject.Effect{}
			},
		})
		defer faultinject.Disarm()
		s.GroupUpsert(1, []uint32{1}, loc)
		s.GroupUpsert(2, []uint32{2}, loc)
		waitFor(t, "second append", func() bool { return s.Stats().Appended == 1 })
		s.Close()
		st, _, err := Recover(dir)
		if err != nil {
			t.Fatal(err)
		}
		if _, dropped := st.Groups[1]; dropped || len(st.Groups) != 1 {
			t.Fatalf("drop: %v", st.Groups)
		}
	})

	t.Run("crash-before-fsync", func(t *testing.T) {
		dir := t.TempDir()
		s, _ := openStore(t, dir, Config{Fsync: PolicyAlways})
		s.GroupUpsert(1, []uint32{1}, loc)
		waitFor(t, "first sync", func() bool { return s.Stats().Syncs >= 1 })
		faultinject.Arm(faultinject.Script{
			faultinject.WALSync: faultinject.PanicOn(1, "crash before fsync"),
		})
		defer faultinject.Disarm()
		s.GroupUpsert(2, []uint32{2}, loc)
		waitFor(t, "wedge", func() bool { return s.Stats().Wedged })
		s.Close() // no-op drain: the writer is gone; must not hang or panic

		st, info, err := Recover(dir)
		if err != nil {
			t.Fatal(err)
		}
		if info.TornBytes != 0 {
			t.Fatalf("crash left torn bytes: %+v", info)
		}
		if _, ok := st.Groups[1]; !ok {
			t.Fatal("synced group lost")
		}
		if _, ok := st.Groups[2]; ok {
			t.Fatal("unsynced group survived a crash before fsync")
		}
	})
}

// TestShedNeverBlocks: with the writer wedged on a stalling fsync, a
// burst far beyond the queue depth must return immediately and be
// accounted as shed — durability can never block the planning path.
func TestShedNeverBlocks(t *testing.T) {
	dir := t.TempDir()
	s, _ := openStore(t, dir, Config{Fsync: PolicyAlways, Queue: 8})
	faultinject.Arm(faultinject.Script{
		faultinject.WALSync: faultinject.StallFirst(1000, 50*time.Millisecond),
	})
	defer faultinject.Disarm()

	loc := []geom.Point{geom.Pt(0.5, 0.5)}
	start := time.Now()
	for i := 0; i < 5000; i++ {
		s.GroupUpsert(uint32(i), []uint32{1}, loc)
	}
	if d := time.Since(start); d > 2*time.Second {
		t.Fatalf("enqueue burst took %v: the hook blocked", d)
	}
	st := s.Stats()
	if st.Shed == 0 {
		t.Fatalf("no sheds under a stalled writer: %+v", st)
	}
	faultinject.Disarm()
	s.Close()
}

// TestRecoveryGoroutineAccounting is the race-enabled leak fence for
// the store lifecycle: open/append/crash/recover/reopen cycles, with
// concurrent hook traffic, must leave no writer goroutine behind.
func TestRecoveryGoroutineAccounting(t *testing.T) {
	base := runtime.NumGoroutine()
	dir := t.TempDir()
	loc := []geom.Point{geom.Pt(0.5, 0.5)}

	for cycle := 0; cycle < 5; cycle++ {
		s, st := openStore(t, dir, Config{Fsync: PolicyInterval, Interval: time.Millisecond})
		if cycle > 0 && len(st.Groups) == 0 {
			t.Fatalf("cycle %d: recovered empty state", cycle)
		}
		var wg sync.WaitGroup
		for w := 0; w < 4; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for i := 0; i < 200; i++ {
					s.GroupUpsert(uint32(w*1000+i%17), []uint32{uint32(w)}, loc)
				}
			}(w)
		}
		wg.Wait()
		if cycle%2 == 0 {
			waitFor(t, "a sync", func() bool { return s.Stats().Syncs >= 1 })
			s.Crash()
		} else {
			s.Close()
		}
	}

	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked: %d -> %d", base, runtime.NumGoroutine())
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestPOIBaseMismatch: reopening a state dir with a different base POI
// table must fail loudly instead of replaying ids onto the wrong table.
func TestPOIBaseMismatch(t *testing.T) {
	dir := t.TempDir()
	s, _ := openStore(t, dir, Config{Fsync: PolicyAlways, POIBase: 100})
	s.POIBatch(100, []geom.Point{geom.Pt(0.5, 0.5)}, nil)
	waitFor(t, "append", func() bool { return s.Stats().Appended == 1 })
	s.Close()
	if _, _, _, err := Open(Config{Dir: dir, POIBase: 50}); err == nil {
		t.Fatal("POI base mismatch accepted")
	}
	s2, st, _, err := Open(Config{Dir: dir, POIBase: 100})
	if err != nil || len(st.POIInserts) != 1 {
		t.Fatalf("matching base rejected: %v %+v", err, st)
	}
	s2.Close()
}

// TestLeftoverWALIgnored: a crash between snapshot rename and old-pair
// removal leaves the previous wal behind; recovery must replay only the
// log matching the newest snapshot.
func TestLeftoverWALIgnored(t *testing.T) {
	dir := t.TempDir()
	s, _ := openStore(t, dir, Config{Fsync: PolicyAlways, CompactAt: 1024})
	for i := 0; i < 100; i++ {
		s.GroupUpsert(uint32(i%3), []uint32{1}, []geom.Point{geom.Pt(0.1, 0.1)})
	}
	waitFor(t, "compaction", func() bool { return s.Stats().Compactions >= 1 })
	s.Close()

	// Fabricate the leftover: an old-seq wal holding a group that was
	// never part of the compacted state.
	stale := AppendFrame([]byte(walMagic), appendGroup(nil, 999, []uint32{9}, []geom.Point{geom.Pt(0.9, 0.9)}))
	if err := os.WriteFile(walName(dir, 1), stale, 0o644); err != nil {
		t.Fatal(err)
	}
	st, info, err := Recover(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, phantom := st.Groups[999]; phantom {
		t.Fatal("stale wal replayed over the snapshot")
	}
	if info.LogSeq == 1 {
		t.Fatalf("recovered against the stale log: %+v", info)
	}
	if err := os.Remove(filepath.Join(dir, "wal-00000001")); err != nil {
		t.Fatal(err)
	}
}
