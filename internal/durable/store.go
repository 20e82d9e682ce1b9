package durable

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"mpn/internal/faultinject"
	"mpn/internal/geom"
)

// Policy selects when the log is fsynced.
type Policy int

const (
	// PolicyInterval fsyncs at most once per Config.Interval (plus on
	// clean close). A crash loses at most one interval of records.
	PolicyInterval Policy = iota
	// PolicyAlways fsyncs after every write batch. A crash loses only
	// records still queued behind the writer.
	PolicyAlways
	// PolicyOff never fsyncs during operation (clean close still
	// does). In the deterministic crash model a crash loses everything
	// appended since the log was opened or compacted.
	PolicyOff
)

// ParsePolicy parses the -fsync flag forms "always", "interval", "off".
func ParsePolicy(s string) (Policy, error) {
	switch s {
	case "always":
		return PolicyAlways, nil
	case "interval":
		return PolicyInterval, nil
	case "off":
		return PolicyOff, nil
	}
	return 0, fmt.Errorf("durable: unknown fsync policy %q (want always|interval|off)", s)
}

// Config configures a Store.
type Config struct {
	// Dir is the state directory (created if missing).
	Dir string
	// Fsync is the sync policy; the zero value is PolicyInterval.
	Fsync Policy
	// Interval is the PolicyInterval sync period. Default 10ms.
	Interval time.Duration
	// Queue bounds the hook→writer queue. When full, records are shed
	// and counted — durability never blocks the caller. Default 1024.
	Queue int
	// CompactAt is the log size (bytes) that triggers snapshot
	// compaction. Default 1MiB.
	CompactAt int64
	// ReopenAttempts bounds reopen-with-backoff after a transient write
	// or sync error: the writer rebuilds a fresh snapshot+log pair from
	// its mirror up to this many times before wedging permanently.
	// Default 5.
	ReopenAttempts int
	// ReopenBackoff is the base delay before the first reopen attempt;
	// it doubles per attempt with jitter from a fixed seed. Default 5ms.
	ReopenBackoff time.Duration
	// POIBase is the size of the base POI table the server boots with;
	// recovery fails if a recovered snapshot disagrees (the serving
	// config changed under the state directory). Negative accepts
	// whatever was recorded.
	POIBase int
}

// Stats is a point-in-time read of the store's counters.
type Stats struct {
	// Appended counts records committed to the log buffer.
	Appended uint64
	// Shed counts records dropped: queue full, store wedged/closed, or
	// discarded by an injected fault.
	Shed uint64
	// Syncs counts fsync calls that succeeded.
	Syncs uint64
	// Compactions counts snapshot compactions.
	Compactions uint64
	// Errors counts write/sync/compaction failures.
	Errors uint64
	// Reopens counts successful reopen-with-backoff recoveries from
	// transient I/O errors.
	Reopens uint64
	// Wedged reports that the log stopped accepting writes (torn write
	// injected, unrecovered I/O error, or Crash).
	Wedged bool
}

// Store is the durable sink for serving-state records: non-blocking
// hooks feed a bounded queue drained by one writer goroutine that
// frames, batches, writes, fsyncs per policy, and compacts the log
// into a snapshot when it grows past Config.CompactAt.
type Store struct {
	cfg Config

	ch      chan []byte
	quit    chan struct{} // closed by Close: drain, sync, exit
	crashCh chan struct{} // closed by Crash: truncate to synced, exit
	done    chan struct{} // closed when the writer has exited

	lifeMu  sync.Mutex
	stopped bool

	closed atomic.Bool
	wedged atomic.Bool

	appended, shed, syncs, compactions, errs, reopens atomic.Uint64

	// Stream subscriptions. The writer mutates the mirror and forwards
	// records under subMu, so StreamFrom can clone a state consistent
	// with a stream position.
	subMu sync.Mutex
	subs  []*StreamSub
	pos   atomic.Uint64 // monotone record position (this process only)

	// Writer-goroutine-owned state. Crash-path truncation also runs on
	// the writer goroutine (crashCh / panic recovery), never outside.
	f            *os.File
	seq          uint64
	hasSnap      bool // snap-<seq> exists on disk
	written      int64
	synced       int64
	compactAfter int64
	lastSync     time.Time
	mirror       *State
	buf          []byte
	rng          *rand.Rand
	ioErr        bool // transient I/O error: reopen-with-backoff may recover
	permWedged   bool // torn write, crash, or reopen exhausted: stay wedged
}

// Open recovers the durable state in cfg.Dir and opens the store for
// appending: the torn tail (if any) is truncated on disk and the writer
// resumes at the end of the valid prefix. The returned State is the
// caller's to keep — the store mirrors it internally — and reflects
// exactly what a post-crash restart would see.
func Open(cfg Config) (*Store, *State, RecoverInfo, error) {
	if cfg.Interval <= 0 {
		cfg.Interval = 10 * time.Millisecond
	}
	if cfg.Queue <= 0 {
		cfg.Queue = 1024
	}
	if cfg.CompactAt <= 0 {
		cfg.CompactAt = 1 << 20
	}
	if err := os.MkdirAll(cfg.Dir, 0o755); err != nil {
		return nil, nil, RecoverInfo{}, err
	}
	st, info, err := Recover(cfg.Dir)
	if err != nil {
		return nil, nil, info, err
	}
	if cfg.POIBase >= 0 && st.POIBase >= 0 && st.POIBase != cfg.POIBase {
		return nil, nil, info, fmt.Errorf("durable: state dir has POI base %d, server configured with %d", st.POIBase, cfg.POIBase)
	}
	if st.POIBase < 0 {
		st.POIBase = cfg.POIBase
	}

	seq := info.LogSeq
	if seq == 0 && info.SnapshotSeq == 0 {
		seq = 1
	}
	path := walName(cfg.Dir, seq)
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, nil, info, err
	}
	valid := info.LogBytes
	if fi, err := f.Stat(); err == nil && fi.Size() == 0 {
		// Fresh log: stamp the magic before any record can land.
		if _, err := f.Write([]byte(walMagic)); err != nil {
			f.Close()
			return nil, nil, info, err
		}
		if err := f.Sync(); err != nil {
			f.Close()
			return nil, nil, info, err
		}
		valid = magicLen
	} else if info.TornBytes > 0 || valid < magicLen {
		// Enforce the torn-tail rule on disk before appending. A log
		// with a damaged magic has an empty valid prefix: restart it.
		if valid < magicLen {
			if err := f.Truncate(0); err != nil {
				f.Close()
				return nil, nil, info, err
			}
			if _, err := f.WriteAt([]byte(walMagic), 0); err != nil {
				f.Close()
				return nil, nil, info, err
			}
			valid = magicLen
		} else if err := f.Truncate(valid); err != nil {
			f.Close()
			return nil, nil, info, err
		}
		if err := f.Sync(); err != nil {
			f.Close()
			return nil, nil, info, err
		}
	}
	if _, err := f.Seek(valid, 0); err != nil {
		f.Close()
		return nil, nil, info, err
	}

	s := &Store{
		cfg:          cfg,
		ch:           make(chan []byte, cfg.Queue),
		quit:         make(chan struct{}),
		crashCh:      make(chan struct{}),
		done:         make(chan struct{}),
		f:            f,
		seq:          seq,
		hasSnap:      info.SnapshotSeq == seq && info.SnapshotSeq != 0,
		written:      valid,
		synced:       valid,
		compactAfter: cfg.CompactAt,
		lastSync:     time.Now(),
		mirror:       st.Clone(),
		rng:          rand.New(rand.NewSource(1)),
	}
	go s.writer()
	return s, st, info, nil
}

// Clone deep-copies a State — the store's mirror, a replication seed.
func (st *State) Clone() *State {
	c := &State{
		POIBase:    st.POIBase,
		POIInserts: append([]geom.Point(nil), st.POIInserts...),
		POIDeleted: append([]int(nil), st.POIDeleted...),
		Groups:     make(map[uint32]GroupState, len(st.Groups)),
		Epoch:      st.Epoch,
	}
	for gid, g := range st.Groups {
		c.Groups[gid] = GroupState{
			IDs:  append([]uint32(nil), g.IDs...),
			Locs: append([]geom.Point(nil), g.Locs...),
		}
	}
	if len(st.deleted) > 0 {
		c.deleted = make(map[int]bool, len(st.deleted))
		for id := range st.deleted {
			c.deleted[id] = true
		}
	}
	return c
}

// GroupUpsert records a group registration or committed location
// update. Non-blocking: sheds when the queue is full or the store is
// wedged. The slices are copied into the encoded record immediately, so
// the caller may reuse them.
func (s *Store) GroupUpsert(gid uint32, ids []uint32, locs []geom.Point) {
	if len(ids) == 0 || len(ids) != len(locs) {
		return
	}
	s.enqueue(appendGroup(make([]byte, 0, 9+len(ids)*20), gid, ids, locs))
}

// GroupUnregister records a group teardown.
func (s *Store) GroupUnregister(gid uint32) {
	s.enqueue(appendUnreg(make([]byte, 0, 5), gid))
}

// POIBatch records one applied ApplyPOIs batch. baseExt is the size of
// the external POI id space when the batch was applied — the id its
// first insert received, whether or not it had inserts.
func (s *Store) POIBatch(baseExt int, inserts []geom.Point, deleteIDs []int) {
	if len(inserts) == 0 && len(deleteIDs) == 0 {
		return
	}
	s.enqueue(appendPOIs(make([]byte, 0, 17+len(inserts)*16+len(deleteIDs)*8), baseExt, inserts, deleteIDs))
}

// EpochRecord journals the adoption of a fencing epoch (boot,
// promotion) so recovery — and every follower seeded from this log —
// restores the fence. Zero epochs are ignored.
func (s *Store) EpochRecord(epoch uint64) {
	if epoch == 0 {
		return
	}
	s.enqueue(AppendEpochRecord(make([]byte, 0, 9), epoch))
}

// enqueue hands one encoded payload to the writer, shedding instead of
// blocking.
func (s *Store) enqueue(payload []byte) {
	if s.closed.Load() || s.wedged.Load() {
		s.shed.Add(1)
		return
	}
	select {
	case s.ch <- payload:
	default:
		s.shed.Add(1)
	}
}

// Stats returns a snapshot of the counters.
func (s *Store) Stats() Stats {
	return Stats{
		Appended:    s.appended.Load(),
		Shed:        s.shed.Load(),
		Syncs:       s.syncs.Load(),
		Compactions: s.compactions.Load(),
		Errors:      s.errs.Load(),
		Reopens:     s.reopens.Load(),
		Wedged:      s.wedged.Load(),
	}
}

// StreamRecord is one live log record delivered to a stream subscriber:
// the raw record payload plus its monotone position in this process's
// record stream (positions are not persistent across restarts).
type StreamRecord struct {
	Pos     uint64
	Payload []byte
}

// StreamSub is a live subscription to the record stream. Records arrive
// on C strictly in position order. A subscriber that falls more than
// its buffer behind is cut: the store marks it lagged and closes C, and
// the consumer must re-seed with a fresh StreamFrom (the replication
// shipper turns this into a follower full resync). C is also closed
// when the store's writer exits (Close, Crash, or wedge-by-panic).
type StreamSub struct {
	C <-chan StreamRecord

	s      *Store
	ch     chan StreamRecord
	lagged bool // guarded by s.subMu
	closed bool // guarded by s.subMu
}

// Lagged reports whether the subscription was cut for falling behind
// (as opposed to the store shutting down).
func (sub *StreamSub) Lagged() bool {
	sub.s.subMu.Lock()
	defer sub.s.subMu.Unlock()
	return sub.lagged
}

// Close detaches the subscription. Idempotent; safe concurrently with
// the store cutting it.
func (sub *StreamSub) Close() {
	sub.s.subMu.Lock()
	defer sub.s.subMu.Unlock()
	sub.s.dropSubLocked(sub, false)
}

// dropSubLocked closes and unregisters sub. Callers hold subMu.
func (s *Store) dropSubLocked(sub *StreamSub, lagged bool) {
	if sub.closed {
		return
	}
	sub.closed = true
	sub.lagged = lagged
	close(sub.ch)
	for i, x := range s.subs {
		if x == sub {
			s.subs = append(s.subs[:i], s.subs[i+1:]...)
			break
		}
	}
}

// StreamFrom atomically clones the mirrored state and subscribes to
// every record applied after it: the returned State is consistent with
// the returned position, and the subscription's first record is
// position+1. buffer bounds the subscription channel (default 256); a
// subscriber that overflows it is cut (see StreamSub).
func (s *Store) StreamFrom(buffer int) (*State, uint64, *StreamSub) {
	if buffer <= 0 {
		buffer = 256
	}
	s.subMu.Lock()
	defer s.subMu.Unlock()
	st := s.mirror.Clone()
	pos := s.pos.Load()
	sub := &StreamSub{s: s, ch: make(chan StreamRecord, buffer)}
	sub.C = sub.ch
	s.subs = append(s.subs, sub)
	return st, pos, sub
}

// StreamPos returns the position of the last record applied to the
// mirror — what a fully caught-up subscriber has seen.
func (s *Store) StreamPos() uint64 { return s.pos.Load() }

// forwardLocked fans one record out to every subscriber, cutting any
// whose buffer is full. Callers hold subMu.
func (s *Store) forwardLocked(rec StreamRecord) {
	for i := 0; i < len(s.subs); {
		sub := s.subs[i]
		select {
		case sub.ch <- rec:
			i++
		default:
			sub.closed = true
			sub.lagged = true
			close(sub.ch)
			s.subs = append(s.subs[:i], s.subs[i+1:]...)
		}
	}
}

// closeSubs closes every subscription on writer exit.
func (s *Store) closeSubs() {
	s.subMu.Lock()
	defer s.subMu.Unlock()
	for _, sub := range s.subs {
		if !sub.closed {
			sub.closed = true
			close(sub.ch)
		}
	}
	s.subs = nil
}

// Close drains the queue, flushes, fsyncs, and stops the writer. Safe
// to call more than once and after Crash.
func (s *Store) Close() error {
	s.lifeMu.Lock()
	defer s.lifeMu.Unlock()
	if s.stopped {
		return nil
	}
	s.stopped = true
	s.closed.Store(true)
	close(s.quit)
	<-s.done
	return nil
}

// Crash simulates a process kill at this instant: the writer stops
// without draining and the log is truncated to the last fsynced offset
// — the deterministic model of "what the disk is guaranteed to hold".
// Records appended but not yet synced are lost, exactly as the fsync
// policy allows. Safe to call more than once and after Close (then a
// no-op: a clean close already synced everything).
func (s *Store) Crash() {
	s.lifeMu.Lock()
	defer s.lifeMu.Unlock()
	if s.stopped {
		return
	}
	s.stopped = true
	s.closed.Store(true)
	close(s.crashCh)
	<-s.done
}

// writer is the single goroutine owning the log file. A panic inside it
// (the WALSync failpoint models crash-before-fsync this way) is
// recovered as a crash: truncate to the synced offset and wedge.
func (s *Store) writer() {
	defer close(s.done)
	defer s.closeSubs()
	defer func() {
		if r := recover(); r != nil {
			s.errs.Add(1)
			s.permWedged = true
			s.doCrash()
		}
	}()

	var tickC <-chan time.Time
	if s.cfg.Fsync == PolicyInterval {
		t := time.NewTicker(s.cfg.Interval)
		defer t.Stop()
		tickC = t.C
	}
	batch := make([][]byte, 0, 128)
	for {
		select {
		case <-s.crashCh:
			s.permWedged = true
			s.doCrash()
			return
		case <-s.quit:
			batch = batch[:0]
			for {
				select {
				case p := <-s.ch:
					batch = append(batch, p)
				default:
					s.writeBatch(batch)
					s.syncNow()
					s.f.Close()
					return
				}
			}
		case p := <-s.ch:
			batch = append(batch[:0], p)
			for len(batch) < cap(batch) {
				select {
				case q := <-s.ch:
					batch = append(batch, q)
				default:
					goto have
				}
			}
		have:
			s.writeBatch(batch)
			s.maybeSync()
			if s.maybeReopen() {
				return
			}
			// The one compaction trigger: the log's byte size.
			if !s.wedged.Load() && s.written >= s.compactAfter {
				s.compact()
				if s.maybeReopen() {
					return
				}
			}
		case <-tickC:
			if s.written > s.synced {
				s.syncNow()
				if s.maybeReopen() {
					return
				}
			}
		}
	}
}

// maybeReopen runs reopen-with-backoff when the store wedged on a
// transient I/O error. Returns true when the writer must exit (Close or
// Crash arrived while backing off).
func (s *Store) maybeReopen() bool {
	if !s.wedged.Load() || !s.ioErr || s.permWedged {
		return false
	}
	attempts := s.cfg.ReopenAttempts
	if attempts <= 0 {
		attempts = 5
	}
	backoff := s.cfg.ReopenBackoff
	if backoff <= 0 {
		backoff = 5 * time.Millisecond
	}
	for i := 0; i < attempts; i++ {
		d := backoff << uint(i)
		d += time.Duration(s.rng.Int63n(int64(backoff)))
		select {
		case <-s.quit:
			// Exit path: nothing more can be written; the deferred
			// close paths run in writer(). Close the file best-effort.
			s.f.Close()
			return true
		case <-s.crashCh:
			s.permWedged = true
			s.doCrash()
			return true
		case <-time.After(d):
		}
		if _, err := s.rotate(); err == nil {
			s.ioErr = false
			s.wedged.Store(false)
			s.reopens.Add(1)
			return false
		}
		s.errs.Add(1)
	}
	// Exhausted: the store stays wedged for the process lifetime.
	s.permWedged = true
	return false
}

// doCrash truncates the log to the synced offset and wedges the store.
// Runs on the writer goroutine only.
func (s *Store) doCrash() {
	s.wedged.Store(true)
	if s.f != nil {
		s.f.Truncate(s.synced)
		s.f.Sync()
		s.f.Close()
	}
}

// writeBatch frames and writes a batch of payloads, interpreting the
// WALAppend failpoint: Drop discards one record; ShortWrite commits the
// records before it, writes a partial frame (which reaches disk — the
// crash happened mid-write), and wedges the log.
func (s *Store) writeBatch(batch [][]byte) {
	if len(batch) == 0 {
		return
	}
	if s.wedged.Load() {
		s.shed.Add(uint64(len(batch)))
		return
	}
	s.buf = s.buf[:0]
	pend := 0 // batch[:pend] framed into s.buf
	for i, p := range batch {
		eff := faultinject.FireEffect(faultinject.WALAppend)
		if eff.Drop {
			s.shed.Add(1)
			continue
		}
		if eff.ShortWrite > 0 {
			s.flush(batch[:pend])
			fr := AppendFrame(nil, p)
			k := eff.ShortWrite
			if k > len(fr) {
				k = len(fr)
			}
			if _, err := s.f.Write(fr[:k]); err == nil {
				s.written += int64(k)
				s.f.Sync()
				s.synced = s.written
			}
			// A torn frame on disk is a crash artifact, not a transient
			// error: reopen must not resurrect this store.
			s.permWedged = true
			s.wedged.Store(true)
			s.shed.Add(uint64(len(batch) - i))
			return
		}
		if i != pend {
			batch[pend] = p
		}
		s.buf = AppendFrame(s.buf, p)
		pend++
	}
	s.flush(batch[:pend])
}

// flush writes the framed buffer, applies the payloads to the mirror,
// and forwards them to stream subscribers. A write error wedges the
// store — the log's tail state is unknown, so appending more would
// interleave garbage — but marks it recoverable: reopen-with-backoff
// rebuilds a fresh snapshot+log pair from the mirror. The WALWrite
// failpoint's Fail effect models exactly that transient error.
func (s *Store) flush(payloads [][]byte) {
	if len(s.buf) == 0 {
		return
	}
	if eff := faultinject.FireEffect(faultinject.WALWrite); eff.Fail {
		s.errs.Add(1)
		s.shed.Add(uint64(len(payloads)))
		s.buf = s.buf[:0]
		s.ioErr = true
		s.wedged.Store(true)
		return
	}
	n, err := s.f.Write(s.buf)
	s.written += int64(n)
	s.buf = s.buf[:0]
	if err != nil {
		s.errs.Add(1)
		s.shed.Add(uint64(len(payloads)))
		s.ioErr = true
		s.wedged.Store(true)
		return
	}
	s.subMu.Lock()
	for _, p := range payloads {
		if err := s.mirror.Apply(p); err != nil {
			s.errs.Add(1)
			continue
		}
		s.forwardLocked(StreamRecord{Pos: s.pos.Add(1), Payload: p})
	}
	s.subMu.Unlock()
	s.appended.Add(uint64(len(payloads)))
}

// maybeSync applies the fsync policy after a write.
func (s *Store) maybeSync() {
	switch s.cfg.Fsync {
	case PolicyAlways:
		s.syncNow()
	case PolicyInterval:
		if time.Since(s.lastSync) >= s.cfg.Interval {
			s.syncNow()
		}
	}
}

// syncNow fsyncs the log. The WALSync failpoint fires first: a stall
// models a slow disk (backpressure fills the queue and sheds), a panic
// models a crash before the data became durable.
func (s *Store) syncNow() {
	if s.wedged.Load() || s.written == s.synced {
		return
	}
	faultinject.Fire(faultinject.WALSync)
	if err := s.f.Sync(); err != nil {
		s.errs.Add(1)
		s.wedged.Store(true)
		return
	}
	s.synced = s.written
	s.syncs.Add(1)
	s.lastSync = time.Now()
}

// compact folds the mirror into a fresh snapshot and starts a new
// empty log, removing the old pair. If the snapshot was renamed into
// place but the fresh log could not be opened, the old pair is already
// superseded — appending to the old log would write records recovery
// never replays — so the store wedges with a recoverable I/O error and
// reopen-with-backoff retries the rotation. Other failures keep
// appending to the old log and retry after another CompactAt bytes.
func (s *Store) compact() {
	renamed, err := s.rotate()
	if err == nil {
		s.compactions.Add(1)
		return
	}
	s.errs.Add(1)
	if renamed {
		s.ioErr = true
		s.wedged.Store(true)
		return
	}
	s.compactAfter = s.written + s.cfg.CompactAt
}

// rotate writes the mirror as snapshot seq+1 (temp + fsync + rename),
// opens a fresh log at the same seq, and commits the store onto the new
// pair, removing the old one. It returns renamed=true once the new
// snapshot is in place — from that point the old pair is superseded
// even on error. rotate is also the reopen path after a transient I/O
// error: the mirror holds everything durable plus everything written
// since, so the rebuilt pair loses nothing the old log held.
func (s *Store) rotate() (renamed bool, err error) {
	newSeq := s.seq + 1
	tmp := filepath.Join(s.cfg.Dir, fmt.Sprintf("snap-%08d.tmp", newSeq))
	// Clone under subMu: rotate may run concurrently with StreamFrom
	// reading the mirror. The writer itself is the only mutator.
	s.subMu.Lock()
	snap := s.mirror.Clone()
	s.subMu.Unlock()
	if err := writeSnapshot(tmp, snap); err != nil {
		os.Remove(tmp)
		return false, err
	}
	if err := os.Rename(tmp, snapName(s.cfg.Dir, newSeq)); err != nil {
		os.Remove(tmp)
		return false, err
	}
	syncDir(s.cfg.Dir)

	nf, err := os.OpenFile(walName(s.cfg.Dir, newSeq), os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err == nil {
		if _, werr := nf.Write([]byte(walMagic)); werr != nil {
			err = werr
		} else if werr := nf.Sync(); werr != nil {
			err = werr
		}
	}
	if err != nil {
		if nf != nil {
			nf.Close()
		}
		return true, err
	}
	syncDir(s.cfg.Dir)

	oldSeq, oldSnap := s.seq, s.hasSnap
	s.f.Close()
	s.f = nf
	s.seq = newSeq
	s.hasSnap = true
	s.written, s.synced = magicLen, magicLen
	s.compactAfter = s.cfg.CompactAt
	s.lastSync = time.Now()

	os.Remove(walName(s.cfg.Dir, oldSeq))
	if oldSnap {
		os.Remove(snapName(s.cfg.Dir, oldSeq))
	}
	syncDir(s.cfg.Dir)
	return true, nil
}

// writeSnapshot serializes st to path and fsyncs it: magic, then the
// framed record sequence from AppendStateFrames (meta first, epoch if
// recorded, cumulative POIs, groups sorted by gid).
func writeSnapshot(path string, st *State) error {
	buf := AppendStateFrames([]byte(snapMagic), st)
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(buf); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// syncDir fsyncs a directory so renames and unlinks are durable.
// Best-effort: not every platform supports it.
func syncDir(dir string) {
	d, err := os.Open(dir)
	if err != nil {
		return
	}
	d.Sync()
	d.Close()
}
