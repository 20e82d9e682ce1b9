package durable

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
)

// RecoverInfo describes what recovery found, for logging and tests.
type RecoverInfo struct {
	// SnapshotSeq is the sequence of the snapshot the state was loaded
	// from, 0 when recovery started from an empty state.
	SnapshotSeq uint64
	// LogSeq is the sequence of the live log (0 when the directory held
	// nothing; Open then starts at 1).
	LogSeq uint64
	// LogRecords counts log records replayed on top of the snapshot.
	LogRecords int
	// LogBytes is the valid log length in bytes (magic included).
	LogBytes int64
	// TornBytes counts trailing log bytes discarded by the torn-tail
	// rule (0 for a cleanly closed log).
	TornBytes int64
}

// snapName / walName build the on-disk file names for a sequence.
func snapName(dir string, seq uint64) string {
	return filepath.Join(dir, fmt.Sprintf("snap-%08d", seq))
}
func walName(dir string, seq uint64) string { return filepath.Join(dir, fmt.Sprintf("wal-%08d", seq)) }

// scanDir lists the snapshot and log sequences present in dir.
func scanDir(dir string) (snaps, wals []uint64, err error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, nil, err
	}
	for _, e := range ents {
		var seq uint64
		if n, _ := fmt.Sscanf(e.Name(), "snap-%d", &seq); n == 1 {
			snaps = append(snaps, seq)
		} else if n, _ := fmt.Sscanf(e.Name(), "wal-%d", &seq); n == 1 {
			wals = append(wals, seq)
		}
	}
	sort.Slice(snaps, func(i, j int) bool { return snaps[i] < snaps[j] })
	sort.Slice(wals, func(i, j int) bool { return wals[i] < wals[j] })
	return snaps, wals, nil
}

// Recover reads the durable state from dir without opening it for
// appending: the newest snapshot (validated end to end) plus a replay
// of its log, truncated in memory at the first bad frame. It never
// panics on any directory contents. A missing or empty directory
// recovers the empty state. A damaged snapshot is a typed error
// (ErrCorruptSnapshot): snapshots are written atomically, so damage
// there is not a torn tail and recovery refuses to guess.
//
// Recover is read-only; it does not truncate the torn tail on disk
// (Open does, before appending).
func Recover(dir string) (*State, RecoverInfo, error) {
	st := NewState()
	var info RecoverInfo
	snaps, wals, err := scanDir(dir)
	if os.IsNotExist(err) {
		return st, info, nil
	}
	if err != nil {
		return nil, info, err
	}

	if len(snaps) > 0 {
		seq := snaps[len(snaps)-1]
		if err := loadSnapshot(snapName(dir, seq), st); err != nil {
			return nil, info, err
		}
		info.SnapshotSeq = seq
	}

	// The live log is the one matching the snapshot seq; with no
	// snapshot it is the lowest log present (normally wal-00000001).
	// Logs from other sequences are compaction leftovers: a crash
	// between renaming the snapshot and removing the old pair leaves
	// the old wal behind, already folded into the snapshot.
	logSeq := info.SnapshotSeq
	if len(snaps) == 0 && len(wals) > 0 {
		logSeq = wals[0]
	}
	info.LogSeq = logSeq
	path := walName(dir, logSeq)
	b, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return st, info, nil
	}
	if err != nil {
		return nil, info, err
	}
	valid, n := replayLog(b, st)
	info.LogRecords = n
	info.LogBytes = valid
	info.TornBytes = int64(len(b)) - valid
	return st, info, nil
}

// loadSnapshot reads and validates one snapshot file into st. Any
// defect — bad magic, torn frame, trailing garbage, invalid record, a
// non-meta first record — is ErrCorruptSnapshot.
func loadSnapshot(path string, st *State) error {
	b, err := os.ReadFile(path)
	if err != nil {
		return fmt.Errorf("%w: %v", ErrCorruptSnapshot, err)
	}
	if len(b) < magicLen || string(b[:magicLen]) != snapMagic {
		return fmt.Errorf("%w: bad magic in %s", ErrCorruptSnapshot, filepath.Base(path))
	}
	b = b[magicLen:]
	first := true
	for len(b) > 0 {
		payload, size, ok := nextFrame(b)
		if !ok {
			return fmt.Errorf("%w: torn frame in %s", ErrCorruptSnapshot, filepath.Base(path))
		}
		if first && payload[0] != RecMeta {
			return fmt.Errorf("%w: %s does not start with a meta record", ErrCorruptSnapshot, filepath.Base(path))
		}
		first = false
		if err := st.Apply(payload); err != nil {
			return fmt.Errorf("%w: %v", ErrCorruptSnapshot, err)
		}
		b = b[size:]
	}
	if first {
		return fmt.Errorf("%w: %s holds no records", ErrCorruptSnapshot, filepath.Base(path))
	}
	return nil
}

// replayLog applies the valid prefix of log bytes b (magic included) to
// st and returns the prefix length and the number of records applied.
// The torn-tail rule: a missing or damaged magic means an empty valid
// prefix; the first short, oversized, CRC-failing, or semantically
// invalid frame ends the replay there. Records beyond a bad frame are
// unreachable by construction — the writer appends sequentially, so
// bytes after a torn frame are from a dead write.
func replayLog(b []byte, st *State) (valid int64, records int) {
	if len(b) < magicLen || string(b[:magicLen]) != walMagic {
		return 0, 0
	}
	off := int64(magicLen)
	b = b[magicLen:]
	for len(b) > 0 {
		payload, size, ok := nextFrame(b)
		if !ok {
			break
		}
		if err := st.Apply(payload); err != nil {
			break
		}
		off += int64(size)
		records++
		b = b[size:]
	}
	return off, records
}
