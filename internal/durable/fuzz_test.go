package durable

import (
	"errors"
	"os"
	"testing"

	"mpn/internal/geom"
)

// validPair returns well-formed snapshot and log bytes the fuzzer
// mutates from.
func validPair() (snap, wal []byte) {
	st := NewState()
	st.POIBase = 10
	st.POIInserts = []geom.Point{geom.Pt(0.5, 0.5), geom.Pt(0.25, 0.75)}
	st.POIDeleted = []int{3, 11}
	st.Groups[7] = GroupState{IDs: []uint32{1, 2}, Locs: []geom.Point{geom.Pt(0.1, 0.2), geom.Pt(0.3, 0.4)}}

	dir, err := os.MkdirTemp("", "durable-fuzz-seed")
	if err != nil {
		panic(err)
	}
	defer os.RemoveAll(dir)
	if err := writeSnapshot(snapName(dir, 1), st); err != nil {
		panic(err)
	}
	snap, _ = os.ReadFile(snapName(dir, 1))

	wal = []byte(walMagic)
	wal = AppendFrame(wal, appendGroup(nil, 8, []uint32{5}, []geom.Point{geom.Pt(0.9, 0.9)}))
	wal = AppendFrame(wal, appendPOIs(nil, 12, []geom.Point{geom.Pt(0.6, 0.6)}, []int{0}))
	wal = AppendFrame(wal, appendUnreg(nil, 7))
	return snap, wal
}

// FuzzWALRecover is the recovery robustness fence: for ARBITRARY
// snapshot and log bytes, Recover must never panic, must either return
// a typed error or a state that is a valid prefix of some record
// stream, and must never restore phantom state (internally inconsistent
// groups or POI ids outside the recorded id space).
func FuzzWALRecover(f *testing.F) {
	snap, wal := validPair()
	f.Add(snap, wal)
	f.Add([]byte{}, wal)
	f.Add(snap, []byte{})
	f.Add(snap[:len(snap)-3], wal[:len(wal)-5])
	f.Add([]byte(snapMagic), []byte(walMagic))

	f.Fuzz(func(t *testing.T, snapBytes, walBytes []byte) {
		dir := t.TempDir()
		if len(snapBytes) > 0 {
			if err := os.WriteFile(snapName(dir, 1), snapBytes, 0o644); err != nil {
				t.Skip()
			}
		}
		if len(walBytes) > 0 {
			if err := os.WriteFile(walName(dir, 1), walBytes, 0o644); err != nil {
				t.Skip()
			}
		}

		st, info, err := Recover(dir)
		if err != nil {
			if !errors.Is(err, ErrCorruptSnapshot) {
				t.Fatalf("untyped recovery error: %v", err)
			}
			return
		}

		// Recovered state must be internally consistent — no phantom
		// shapes a replay of valid records could not have produced.
		if st == nil {
			t.Fatal("nil state without error")
		}
		for gid, g := range st.Groups {
			if len(g.IDs) == 0 || len(g.IDs) != len(g.Locs) {
				t.Fatalf("group %d inconsistent: %d ids, %d locs", gid, len(g.IDs), len(g.Locs))
			}
		}
		limit := st.poiNext()
		seen := make(map[int]bool, len(st.POIDeleted))
		for _, id := range st.POIDeleted {
			if id < 0 || id >= limit {
				t.Fatalf("phantom deleted POI %d (id space %d)", id, limit)
			}
			if seen[id] {
				t.Fatalf("duplicate deleted POI %d", id)
			}
			seen[id] = true
		}
		if st.POIBase >= 0 && len(st.POIDeleted) > st.POIBase+len(st.POIInserts) {
			t.Fatalf("more deletions (%d) than ids (%d)", len(st.POIDeleted), st.POIBase+len(st.POIInserts))
		}
		if info.LogBytes < 0 || info.TornBytes < 0 {
			t.Fatalf("negative accounting: %+v", info)
		}

		// The valid prefix must be stable: recovering again over the
		// truncated prefix yields the same state.
		if info.TornBytes > 0 && len(walBytes) > 0 {
			if err := os.WriteFile(walName(dir, 1), walBytes[:info.LogBytes], 0o644); err == nil {
				st2, info2, err := Recover(dir)
				if err != nil || info2.TornBytes != 0 || len(st2.Groups) != len(st.Groups) {
					t.Fatalf("prefix not stable: %v %+v vs %+v", err, info2, info)
				}
			}
		}
	})
}
