// Package durable is the server's crash-safety subsystem: a CRC-framed,
// append-only write-ahead log plus periodic snapshot compaction for the
// authoritative serving state — group registrations, membership,
// last-committed member locations, and ApplyPOIs batches — with a
// recovery path that replays snapshot+log and tolerates a torn tail.
//
// On-disk layout (one directory per server):
//
//	snap-<seq>  MPNSNAP1 magic, then CRC-framed records (meta first)
//	wal-<seq>   MPNWAL01 magic, then CRC-framed records, append-only
//
// Every frame is [u32 len][u32 crc32(payload)][payload], little-endian.
// A snapshot is written whole to a temp file, fsynced, and renamed into
// place, so a snapshot is either entirely valid or evidence of real
// corruption (ErrCorruptSnapshot). The log is append-only and may end
// mid-frame after a crash: recovery truncates at the first bad frame
// (the torn-tail rule) and never panics on any input bytes.
//
// The Store accepts state-change records through non-blocking hooks
// backed by a bounded queue and a single writer goroutine, so
// durability can never block planning: when the queue is full the
// record is shed and counted. The fsync policy is configurable
// (always | interval | off); the deterministic crash model is that
// Crash() truncates the log to the last fsynced offset, giving each
// policy exact, testable loss semantics without OS interposition.
package durable

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"sort"

	"mpn/internal/geom"
)

// Typed recovery errors. Recover wraps these with positional detail;
// test with errors.Is.
var (
	// ErrCorruptSnapshot means a snapshot file failed its magic, a
	// frame CRC, or record validation. Snapshots are written atomically
	// (temp + fsync + rename), so this is real damage, not a torn tail.
	ErrCorruptSnapshot = errors.New("durable: corrupt snapshot")
	// ErrBadRecord means a CRC-valid frame decoded to a record that is
	// internally inconsistent (unknown type, short payload, phantom POI
	// ids). In a log this truncates the tail; in a snapshot it is
	// wrapped in ErrCorruptSnapshot.
	ErrBadRecord = errors.New("durable: invalid record")
)

// Record type bytes (payload[0]). Exported so stream consumers (the
// replication tailer) can dispatch on decoded records.
const (
	RecGroup byte = 1 // group upsert: registration or committed update
	RecUnreg byte = 2 // group unregistration
	RecPOIs  byte = 3 // one ApplyPOIs batch (external ids)
	RecMeta  byte = 4 // snapshot header: POI base table size
	RecEpoch byte = 5 // fencing epoch adopted (monotone, never decreases)
)

// MaxRecord bounds one record payload; a frame claiming more is corrupt.
const MaxRecord = 1 << 26

const (
	snapMagic = "MPNSNAP1"
	walMagic  = "MPNWAL01"
	magicLen  = 8
	frameHdr  = 8 // u32 len + u32 crc
)

// GroupState is one group's durable state: member ids and their last
// committed locations, parallel slices sorted as registered.
type GroupState struct {
	IDs  []uint32
	Locs []geom.Point
}

// State is the recovered (or mirrored) authoritative state. POI
// mutations are tracked relative to the base table the server boots
// with: POIInserts carry external ids POIBase..POIBase+len-1, and
// POIDeleted lists tombstoned external ids in ascending order.
type State struct {
	POIBase    int // -1 until the first meta/POI record fixes it
	POIInserts []geom.Point
	POIDeleted []int
	Groups     map[uint32]GroupState
	// Epoch is the fencing epoch last recorded (0 = never recorded): a
	// node refuses to serve writes for any epoch below one it has seen,
	// which is what keeps a deposed primary from accepting registrations
	// after its follower promoted.
	Epoch uint64

	deleted map[int]bool // working set behind POIDeleted
}

// NewState returns an empty state with an unknown POI base — the seed
// for replays and replication mirrors.
func NewState() *State {
	return &State{POIBase: -1, Groups: make(map[uint32]GroupState)}
}

// poiNext returns the next expected external insert id.
func (st *State) poiNext() int {
	base := st.POIBase
	if base < 0 {
		base = 0
	}
	return base + len(st.POIInserts)
}

// appendGroup encodes a group upsert record.
func appendGroup(buf []byte, gid uint32, ids []uint32, locs []geom.Point) []byte {
	buf = append(buf, RecGroup)
	buf = binary.LittleEndian.AppendUint32(buf, gid)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(ids)))
	for _, id := range ids {
		buf = binary.LittleEndian.AppendUint32(buf, id)
	}
	for _, p := range locs {
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(p.X))
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(p.Y))
	}
	return buf
}

// appendUnreg encodes a group unregistration record.
func appendUnreg(buf []byte, gid uint32) []byte {
	buf = append(buf, RecUnreg)
	return binary.LittleEndian.AppendUint32(buf, gid)
}

// appendPOIs encodes one ApplyPOIs batch. baseExt is the external id
// the batch's first insert received — equivalently, the size of the
// external id space when the batch was applied — which recovery uses to
// validate that replay stays aligned with the original id assignment.
func appendPOIs(buf []byte, baseExt int, inserts []geom.Point, deleteIDs []int) []byte {
	buf = append(buf, RecPOIs)
	buf = binary.LittleEndian.AppendUint64(buf, uint64(baseExt))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(inserts)))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(deleteIDs)))
	for _, p := range inserts {
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(p.X))
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(p.Y))
	}
	for _, id := range deleteIDs {
		buf = binary.LittleEndian.AppendUint64(buf, uint64(id))
	}
	return buf
}

// appendMeta encodes the snapshot header record.
func appendMeta(buf []byte, poiBase int) []byte {
	buf = append(buf, RecMeta)
	return binary.LittleEndian.AppendUint64(buf, uint64(poiBase))
}

// AppendEpochRecord encodes a fencing-epoch record payload. The store's
// EpochRecord hook journals one whenever a node adopts a new epoch —
// boot, promotion — so recovery (and every follower seeded from this
// log) restores the fence.
func AppendEpochRecord(buf []byte, epoch uint64) []byte {
	buf = append(buf, RecEpoch)
	return binary.LittleEndian.AppendUint64(buf, epoch)
}

// Record is one structurally decoded log record, for consumers that
// need the fields rather than the state fold: the replication tailer
// dispatches decoded records into the serving engine. Which fields are
// meaningful depends on Type.
type Record struct {
	Type byte // RecGroup, RecUnreg, RecPOIs, RecMeta, or RecEpoch

	GID  uint32       // RecGroup, RecUnreg
	IDs  []uint32     // RecGroup
	Locs []geom.Point // RecGroup

	POIBase int          // RecPOIs (the batch's baseExt), RecMeta
	Inserts []geom.Point // RecPOIs
	Deletes []int        // RecPOIs

	Epoch uint64 // RecEpoch
}

// DecodeRecord parses one record payload, validating every length and
// range that can be checked without state. Stateful validation — POI
// base alignment, phantom deletes, epoch monotonicity — happens in
// State.Apply. Returns ErrBadRecord (wrapped) on anything inconsistent.
func DecodeRecord(payload []byte) (Record, error) {
	var rec Record
	if len(payload) == 0 {
		return rec, fmt.Errorf("%w: empty payload", ErrBadRecord)
	}
	rec.Type = payload[0]
	body := payload[1:]
	switch rec.Type {
	case RecGroup:
		if len(body) < 8 {
			return rec, fmt.Errorf("%w: short group record", ErrBadRecord)
		}
		rec.GID = binary.LittleEndian.Uint32(body)
		n := int(binary.LittleEndian.Uint32(body[4:]))
		if n <= 0 || len(body) != 8+n*4+n*16 {
			return rec, fmt.Errorf("%w: group record size %d for %d members", ErrBadRecord, len(body), n)
		}
		rec.IDs = make([]uint32, n)
		rec.Locs = make([]geom.Point, n)
		off := 8
		for i := range rec.IDs {
			rec.IDs[i] = binary.LittleEndian.Uint32(body[off:])
			off += 4
		}
		for i := range rec.Locs {
			rec.Locs[i].X = math.Float64frombits(binary.LittleEndian.Uint64(body[off:]))
			rec.Locs[i].Y = math.Float64frombits(binary.LittleEndian.Uint64(body[off+8:]))
			off += 16
		}
	case RecUnreg:
		if len(body) != 4 {
			return rec, fmt.Errorf("%w: short unregister record", ErrBadRecord)
		}
		rec.GID = binary.LittleEndian.Uint32(body)
	case RecPOIs:
		if len(body) < 16 {
			return rec, fmt.Errorf("%w: short POI record", ErrBadRecord)
		}
		rec.POIBase = int(binary.LittleEndian.Uint64(body))
		nIns := int(binary.LittleEndian.Uint32(body[8:]))
		nDel := int(binary.LittleEndian.Uint32(body[12:]))
		if nIns < 0 || nDel < 0 || len(body) != 16+nIns*16+nDel*8 {
			return rec, fmt.Errorf("%w: POI record size %d for %d+%d ops", ErrBadRecord, len(body), nIns, nDel)
		}
		if rec.POIBase < 0 || rec.POIBase > 1<<40 {
			return rec, fmt.Errorf("%w: absurd POI batch base %d", ErrBadRecord, rec.POIBase)
		}
		off := 16
		rec.Inserts = make([]geom.Point, nIns)
		for i := range rec.Inserts {
			rec.Inserts[i].X = math.Float64frombits(binary.LittleEndian.Uint64(body[off:]))
			rec.Inserts[i].Y = math.Float64frombits(binary.LittleEndian.Uint64(body[off+8:]))
			off += 16
		}
		rec.Deletes = make([]int, nDel)
		for i := range rec.Deletes {
			rec.Deletes[i] = int(binary.LittleEndian.Uint64(body[off:]))
			off += 8
		}
	case RecMeta:
		if len(body) != 8 {
			return rec, fmt.Errorf("%w: short meta record", ErrBadRecord)
		}
		rec.POIBase = int(binary.LittleEndian.Uint64(body))
		if rec.POIBase < 0 || rec.POIBase > 1<<40 {
			return rec, fmt.Errorf("%w: absurd POI base %d", ErrBadRecord, rec.POIBase)
		}
	case RecEpoch:
		if len(body) != 8 {
			return rec, fmt.Errorf("%w: short epoch record", ErrBadRecord)
		}
		rec.Epoch = binary.LittleEndian.Uint64(body)
		if rec.Epoch == 0 {
			return rec, fmt.Errorf("%w: zero fencing epoch", ErrBadRecord)
		}
	default:
		return rec, fmt.Errorf("%w: unknown record type %d", ErrBadRecord, rec.Type)
	}
	return rec, nil
}

// Apply decodes one record payload and applies it to st, validating
// every length and id so corrupted-but-CRC-valid bytes can never
// restore phantom state. Returns ErrBadRecord (wrapped) on anything
// inconsistent.
func (st *State) Apply(payload []byte) error {
	rec, err := DecodeRecord(payload)
	if err != nil {
		return err
	}
	return st.ApplyRecord(rec)
}

// ApplyRecord folds one decoded record into st with the stateful half
// of validation (POI base alignment, phantom/double deletes, epoch
// monotonicity).
func (st *State) ApplyRecord(rec Record) error {
	switch rec.Type {
	case RecGroup:
		st.Groups[rec.GID] = GroupState{IDs: rec.IDs, Locs: rec.Locs}
	case RecUnreg:
		delete(st.Groups, rec.GID)
	case RecPOIs:
		if st.POIBase < 0 && len(st.POIInserts) == 0 {
			// No snapshot fixed the base: the first batch does (its
			// baseExt is the table length when it was applied).
			st.POIBase = rec.POIBase
		}
		if rec.POIBase != st.poiNext() {
			return fmt.Errorf("%w: POI batch base %d, expected %d", ErrBadRecord, rec.POIBase, st.poiNext())
		}
		// Validate deletes against the id space before mutating anything.
		limit := st.poiNext() + len(rec.Inserts)
		for _, id := range rec.Deletes {
			if id < 0 || id >= limit {
				return fmt.Errorf("%w: delete of phantom POI %d (id space %d)", ErrBadRecord, id, limit)
			}
			if st.deleted[id] {
				return fmt.Errorf("%w: double delete of POI %d", ErrBadRecord, id)
			}
		}
		st.POIInserts = append(st.POIInserts, rec.Inserts...)
		if st.deleted == nil {
			st.deleted = make(map[int]bool)
		}
		for _, id := range rec.Deletes {
			st.deleted[id] = true
			st.POIDeleted = append(st.POIDeleted, id)
		}
	case RecMeta:
		if st.POIBase >= 0 && st.POIBase != rec.POIBase {
			return fmt.Errorf("%w: conflicting POI base %d vs %d", ErrBadRecord, rec.POIBase, st.POIBase)
		}
		st.POIBase = rec.POIBase
	case RecEpoch:
		if rec.Epoch < st.Epoch {
			return fmt.Errorf("%w: fencing epoch went backwards (%d after %d)", ErrBadRecord, rec.Epoch, st.Epoch)
		}
		st.Epoch = rec.Epoch
	default:
		return fmt.Errorf("%w: unknown record type %d", ErrBadRecord, rec.Type)
	}
	return nil
}

// AppendFrame appends one CRC frame around payload to buf — the exact
// wire shape the WAL, snapshots, and the replication stream all share.
func AppendFrame(buf, payload []byte) []byte {
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(payload)))
	buf = binary.LittleEndian.AppendUint32(buf, crc32.ChecksumIEEE(payload))
	return append(buf, payload...)
}

// AppendStateFrames serializes st as a framed record sequence: meta
// first (the snapshot invariant recovery checks), then the fencing
// epoch when one was ever recorded, the cumulative POI batch, and every
// group sorted by gid. It is the body of a snapshot file and the seed
// of a replication stream — a fresh State that applies these frames in
// order is equivalent to st.
func AppendStateFrames(buf []byte, st *State) []byte {
	base := st.POIBase
	if base < 0 {
		base = 0
	}
	buf = AppendFrame(buf, appendMeta(nil, base))
	if st.Epoch > 0 {
		buf = AppendFrame(buf, AppendEpochRecord(nil, st.Epoch))
	}
	if len(st.POIInserts) > 0 || len(st.POIDeleted) > 0 {
		dels := append([]int(nil), st.POIDeleted...)
		sort.Ints(dels)
		buf = AppendFrame(buf, appendPOIs(nil, base, st.POIInserts, dels))
	}
	gids := make([]uint32, 0, len(st.Groups))
	for gid := range st.Groups {
		gids = append(gids, gid)
	}
	sort.Slice(gids, func(i, j int) bool { return gids[i] < gids[j] })
	for _, gid := range gids {
		g := st.Groups[gid]
		buf = AppendFrame(buf, appendGroup(nil, gid, g.IDs, g.Locs))
	}
	return buf
}

// nextFrame parses the frame at the head of b. It returns the payload
// and the total frame size, or ok=false when the bytes do not form a
// whole valid frame (short header, short body, absurd length, or CRC
// mismatch) — the torn-tail condition.
func nextFrame(b []byte) (payload []byte, size int, ok bool) {
	if len(b) < frameHdr {
		return nil, 0, false
	}
	n := int(binary.LittleEndian.Uint32(b))
	if n <= 0 || n > MaxRecord || len(b) < frameHdr+n {
		return nil, 0, false
	}
	payload = b[frameHdr : frameHdr+n]
	if crc32.ChecksumIEEE(payload) != binary.LittleEndian.Uint32(b[4:]) {
		return nil, 0, false
	}
	return payload, frameHdr + n, true
}
