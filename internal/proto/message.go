// Package proto implements the client/server protocol of the paper's
// system architecture (Fig. 3) as a transport-agnostic wire format plus a
// server-side coordinator and a client state machine.
//
// The three message exchanges of the paper map to these frame types:
//
//	Register    client → server   join a group with an initial location
//	Report      client → server   step 1: an escaping user reports
//	Probe       server → client   step 2a: the server asks the others
//	ProbeReply  client → server   step 2b: they answer
//	Notify      server → client   step 3: meeting point + safe region
//	NotifyDelta server → client   step 3, delta form: only changed regions
//	Nack        client → server   a delta could not be applied; send full
//	Ping/Pong   either direction  liveness heartbeat (compact varint layout)
//
// The probe round also has a compact all-varint form (TProbeC and
// TProbeReplyC, negotiated via FlagCompactProbe) that drops the classic
// 58-byte fixed header — a probe is 4–6 bytes on the wire.
//
// Frames are length-prefixed little-endian binary; safe regions travel in
// the mpn region encoding (25-byte circles — one tag byte plus three
// float64 values — and varint-compressed tile grids).
//
// # Delta notifications
//
// A client that sets FlagDeltaCapable on its Register frame opts into
// TNotifyDelta: a compact frame (varint header, ~10 bytes on the wire
// when nothing changed) that carries only the regions whose epoch
// advanced since the server last delivered to that client, each as a
// (member id, epoch, encoded region) record. Regions are state, not
// diffs-of-diffs — every record carries the member's complete encoded
// region — so a single delta frame always repairs an arbitrary epoch
// gap. The frame's Epoch field is the recipient's own-region epoch after
// the update; a client holding a different epoch and receiving no record
// for itself answers with TNack, and the server repairs it with a full
// TNotify. Full TNotify frames also carry the recipient's epoch so the
// client can resynchronize its tracking.
package proto

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"

	"mpn/internal/geom"
)

// MsgType identifies a frame.
type MsgType uint8

// Frame types. TRegister through TNack use the classic fixed-header
// layout (TNotifyDelta excepted); TPing and up use compact all-varint
// layouts (see appendCompactPayload).
const (
	TRegister MsgType = iota + 1
	TReport
	TProbe
	TProbeReply
	TNotify
	TError
	TNotifyDelta
	TNack
	// TPing and TPong are the heartbeat: either peer may send TPing
	// (Epoch carries an opaque sequence number) and the other answers
	// TPong echoing it. Three payload bytes in the steady state.
	TPing
	TPong
	// TProbeC and TProbeReplyC are the compact probe round — the same
	// exchange as TProbe/TProbeReply without the 58-byte classic header,
	// negotiated via FlagCompactProbe on Register. A probe is typically
	// 4–6 payload bytes; the reply adds the 16-byte location.
	TProbeC
	TProbeReplyC
	// TPeers is a server→client peer advertisement: the cluster's current
	// client-facing addresses (primary first) stamped with the fencing
	// epoch that published them. The server pushes one after a successful
	// registration and alongside every write refusal on a non-primary
	// node, so a failover-capable client always knows where to dial next.
	// Epoch carries the fencing epoch; Peers the addresses. Clients adopt
	// an advertisement only when its epoch is not older than the last one
	// adopted, so a delayed frame from a deposed primary cannot point
	// them back at a dead node.
	TPeers
)

// String implements fmt.Stringer.
func (t MsgType) String() string {
	switch t {
	case TRegister:
		return "register"
	case TReport:
		return "report"
	case TProbe:
		return "probe"
	case TProbeReply:
		return "probe-reply"
	case TNotify:
		return "notify"
	case TError:
		return "error"
	case TNotifyDelta:
		return "notify-delta"
	case TNack:
		return "nack"
	case TPing:
		return "ping"
	case TPong:
		return "pong"
	case TProbeC:
		return "probe-compact"
	case TProbeReplyC:
		return "probe-reply-compact"
	case TPeers:
		return "peers"
	default:
		return fmt.Sprintf("msgtype(%d)", uint8(t))
	}
}

// FlagDeltaCapable, set on a Register frame, announces that the client
// understands TNotifyDelta frames. The server only sends deltas to
// members that negotiated them, so a client that opts out — or never
// sets the flag — receives full TNotify frames forever. Note the
// negotiation is within this wire version: the classic frame layout
// itself changed when the Flags and Epoch fields were added (fixed
// header 49 → 58 bytes), so peers from before that change cannot
// interoperate regardless of the flag.
const FlagDeltaCapable uint8 = 1 << 0

// FlagCompactProbe, set on a Register frame, announces that the client
// understands the compact probe round (TProbeC/TProbeReplyC). The server
// probes such a member compactly and the client answers in kind; a
// member without the flag keeps the classic TProbe/TProbeReply exchange,
// so old clients interoperate with new servers and vice versa.
const FlagCompactProbe uint8 = 1 << 1

// FlagObserver, set on a Register frame, subscribes the connection to a
// group's notifications WITHOUT joining it: an observer does not count
// toward the group size, is never probed, and never reports. Whenever
// the group's members are notified of a fresh plan, each observer
// receives one TNotifyDelta frame whose Deltas carry every member's
// complete encoded region that changed since the observer's last
// delivery (all of them after subscription, a drop, or a membership
// change). Observer frames always use the delta layout regardless of
// FlagDeltaCapable, and their Epoch field is zero — an observer has no
// own-region epoch. Observers are torn down with the group when its
// last member leaves.
const FlagObserver uint8 = 1 << 2

// deltaMeeting marks a TNotifyDelta frame that carries a meeting point
// (it changed since the last delivery to this client).
const deltaMeeting uint8 = 1 << 0

// deltaReset marks a TNotifyDelta frame as complete state: the recipient
// must discard every retained member region before applying the frame's
// records. The coordinator sets it on full observer deliveries —
// subscription catch-up, drop repair, membership change — so an observer
// never keeps a region of a member that left the group.
const deltaReset uint8 = 1 << 1

// MaxFrame bounds a frame's payload, protecting the reader from corrupt
// length prefixes. Tile regions are a few hundred bytes; 1 MiB is
// generous.
const MaxFrame = 1 << 20

// RegionDelta is one changed-region record of a TNotifyDelta frame: the
// member's complete encoded region stamped with its fresh epoch.
type RegionDelta struct {
	Member uint32
	Epoch  uint64
	Region []byte
}

// Message is one protocol frame. Fields are used according to Type:
// Register carries Group/User/GroupSize/Flags/Loc; Report and ProbeReply
// carry Group/User/Loc; Probe carries Group/User; Notify carries
// Group/User/Meeting/Epoch/Region; NotifyDelta carries
// Group/User/Epoch/Deltas (and Meeting when MeetingChanged); Nack
// carries Group/User/Epoch; Error carries Text; Ping and Pong carry a
// heartbeat sequence number in Epoch; ProbeC carries Group/User and
// ProbeReplyC carries Group/User/Loc; Peers carries Epoch (the fencing
// epoch) and Peers (the cluster's client-facing addresses).
type Message struct {
	Type      MsgType
	Group     uint32
	User      uint32
	GroupSize uint32
	Flags     uint8
	Epoch     uint64
	Loc       geom.Point
	Meeting   geom.Point
	Region    []byte
	Text      string

	// MeetingChanged, DeltaReset and Deltas belong to TNotifyDelta
	// frames: the meeting point is serialized only when it changed,
	// DeltaReset marks a complete-state (observer repair) frame, and
	// Deltas holds the changed-region records.
	MeetingChanged bool
	DeltaReset     bool
	Deltas         []RegionDelta

	// Peers belongs to TPeers frames: the cluster's client-facing
	// addresses, primary first (Epoch carries the fencing epoch that
	// published them).
	Peers []string
}

// Errors returned by the codec.
var (
	ErrFrameTooLarge = errors.New("proto: frame exceeds MaxFrame")
	ErrCorruptFrame  = errors.New("proto: corrupt frame")
)

// appendPayload serializes m into buf and returns the extended slice
// (without the length prefix).
func (m Message) appendPayload(buf []byte) []byte {
	if m.Type == TNotifyDelta {
		return m.appendDeltaPayload(buf)
	}
	if m.Type >= TPing {
		return m.appendCompactPayload(buf)
	}
	buf = append(buf, byte(m.Type))
	buf = binary.LittleEndian.AppendUint32(buf, m.Group)
	buf = binary.LittleEndian.AppendUint32(buf, m.User)
	buf = binary.LittleEndian.AppendUint32(buf, m.GroupSize)
	buf = append(buf, m.Flags)
	buf = binary.LittleEndian.AppendUint64(buf, m.Epoch)
	buf = appendPoint(buf, m.Loc)
	buf = appendPoint(buf, m.Meeting)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(m.Region)))
	buf = append(buf, m.Region...)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(m.Text)))
	buf = append(buf, m.Text...)
	return buf
}

// appendDeltaPayload is the compact TNotifyDelta layout. Everything that
// can be a varint is one: the steady-state frame — nothing changed — is
// about six payload bytes, versus the ~58-byte fixed header of a classic
// frame before any region bytes.
func (m Message) appendDeltaPayload(buf []byte) []byte {
	buf = append(buf, byte(TNotifyDelta))
	buf = binary.AppendUvarint(buf, uint64(m.Group))
	buf = binary.AppendUvarint(buf, uint64(m.User))
	fl := uint8(0)
	if m.MeetingChanged {
		fl |= deltaMeeting
	}
	if m.DeltaReset {
		fl |= deltaReset
	}
	buf = append(buf, fl)
	buf = binary.AppendUvarint(buf, m.Epoch)
	if m.MeetingChanged {
		buf = appendPoint(buf, m.Meeting)
	}
	buf = binary.AppendUvarint(buf, uint64(len(m.Deltas)))
	for _, d := range m.Deltas {
		buf = binary.AppendUvarint(buf, uint64(d.Member))
		buf = binary.AppendUvarint(buf, d.Epoch)
		buf = binary.AppendUvarint(buf, uint64(len(d.Region)))
		buf = append(buf, d.Region...)
	}
	return buf
}

// appendCompactPayload serializes the all-varint frame family (TPing and
// up): heartbeats are type + uvarint sequence, compact probes are type +
// uvarint group + uvarint user (+ the 16-byte location on the reply),
// peer advertisements are type + uvarint epoch + uvarint count +
// length-prefixed addresses.
func (m Message) appendCompactPayload(buf []byte) []byte {
	buf = append(buf, byte(m.Type))
	switch m.Type {
	case TPing, TPong:
		buf = binary.AppendUvarint(buf, m.Epoch)
	case TProbeC, TProbeReplyC:
		buf = binary.AppendUvarint(buf, uint64(m.Group))
		buf = binary.AppendUvarint(buf, uint64(m.User))
		if m.Type == TProbeReplyC {
			buf = appendPoint(buf, m.Loc)
		}
	case TPeers:
		buf = binary.AppendUvarint(buf, m.Epoch)
		buf = binary.AppendUvarint(buf, uint64(len(m.Peers)))
		for _, a := range m.Peers {
			buf = binary.AppendUvarint(buf, uint64(len(a)))
			buf = append(buf, a...)
		}
	}
	return buf
}

func appendPoint(buf []byte, p geom.Point) []byte {
	buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(p.X))
	return binary.LittleEndian.AppendUint64(buf, math.Float64bits(p.Y))
}

// AppendFrame serializes m — length prefix included — into buf and
// returns the extended slice. It is Write without the io round trip, for
// callers that batch frames or account wire bytes.
func (m Message) AppendFrame(buf []byte) ([]byte, error) {
	start := len(buf)
	buf = append(buf, 0, 0, 0, 0)
	buf = m.appendPayload(buf)
	n := len(buf) - start - 4
	if n > MaxFrame {
		return buf[:start], ErrFrameTooLarge
	}
	binary.LittleEndian.PutUint32(buf[start:], uint32(n))
	return buf, nil
}

// Write frames and writes m.
func Write(w io.Writer, m Message) error {
	frame, err := m.AppendFrame(make([]byte, 0, 80+len(m.Region)+len(m.Text)))
	if err != nil {
		return err
	}
	_, err = w.Write(frame)
	return err
}

// Read reads one framed message.
func Read(r io.Reader) (Message, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return Message{}, err
	}
	n := binary.LittleEndian.Uint32(hdr[:])
	if n > MaxFrame {
		return Message{}, ErrFrameTooLarge
	}
	payload := make([]byte, n)
	if _, err := io.ReadFull(r, payload); err != nil {
		return Message{}, err
	}
	return parsePayload(payload)
}

func parsePayload(p []byte) (Message, error) {
	if len(p) == 0 {
		return Message{}, ErrCorruptFrame
	}
	if MsgType(p[0]) == TNotifyDelta {
		return parseDeltaPayload(p)
	}
	if MsgType(p[0]) >= TPing {
		return parseCompactPayload(p)
	}
	// Fixed part: type(1) + group(4) + user(4) + size(4) + flags(1) +
	// epoch(8) + 2 points(32) + region len(4).
	const fixed = 1 + 4 + 4 + 4 + 1 + 8 + 32 + 4
	if len(p) < fixed {
		return Message{}, ErrCorruptFrame
	}
	var m Message
	m.Type = MsgType(p[0])
	if m.Type < TRegister || m.Type > TNack {
		return Message{}, ErrCorruptFrame
	}
	m.Group = binary.LittleEndian.Uint32(p[1:])
	m.User = binary.LittleEndian.Uint32(p[5:])
	m.GroupSize = binary.LittleEndian.Uint32(p[9:])
	m.Flags = p[13]
	m.Epoch = binary.LittleEndian.Uint64(p[14:])
	m.Loc = readPoint(p[22:])
	m.Meeting = readPoint(p[38:])
	regionLen := binary.LittleEndian.Uint32(p[54:])
	rest := p[58:]
	if uint64(len(rest)) < uint64(regionLen)+4 {
		return Message{}, ErrCorruptFrame
	}
	if regionLen > 0 {
		m.Region = append([]byte(nil), rest[:regionLen]...)
	}
	rest = rest[regionLen:]
	textLen := binary.LittleEndian.Uint32(rest)
	rest = rest[4:]
	if uint32(len(rest)) != textLen {
		return Message{}, ErrCorruptFrame
	}
	if textLen > 0 {
		m.Text = string(rest)
	}
	return m, nil
}

// parseDeltaPayload decodes the compact TNotifyDelta layout with the
// same defensiveness as the fixed layout: any truncation, overflow, or
// trailing garbage is ErrCorruptFrame, never a panic.
func parseDeltaPayload(p []byte) (Message, error) {
	m := Message{Type: TNotifyDelta}
	rest := p[1:]
	u32 := func() (uint32, bool) {
		v, n := binary.Uvarint(rest)
		if n <= 0 || v > math.MaxUint32 {
			return 0, false
		}
		rest = rest[n:]
		return uint32(v), true
	}
	u64 := func() (uint64, bool) {
		v, n := binary.Uvarint(rest)
		if n <= 0 {
			return 0, false
		}
		rest = rest[n:]
		return v, true
	}
	var ok bool
	if m.Group, ok = u32(); !ok {
		return m, ErrCorruptFrame
	}
	if m.User, ok = u32(); !ok {
		return m, ErrCorruptFrame
	}
	if len(rest) < 1 {
		return m, ErrCorruptFrame
	}
	fl := rest[0]
	rest = rest[1:]
	if fl&^(deltaMeeting|deltaReset) != 0 {
		return m, ErrCorruptFrame
	}
	m.DeltaReset = fl&deltaReset != 0
	if m.Epoch, ok = u64(); !ok {
		return m, ErrCorruptFrame
	}
	if fl&deltaMeeting != 0 {
		if len(rest) < 16 {
			return m, ErrCorruptFrame
		}
		m.MeetingChanged = true
		m.Meeting = readPoint(rest)
		rest = rest[16:]
	}
	count, ok := u64()
	if !ok || count > uint64(len(rest))/3 {
		// Each record needs at least 3 varint bytes; a count beyond what
		// the remaining payload could possibly hold is corruption, not a
		// huge frame — and it must be rejected BEFORE sizing the slice,
		// or a small corrupt frame could demand a ~40× larger
		// preallocation (RegionDelta headers) than its own bytes.
		return m, ErrCorruptFrame
	}
	if count > 0 {
		// Cap the preallocation: real frames carry at most a group's
		// worth of records, and append will grow the rare larger (still
		// payload-backed) frame without handing a forged count a 40×
		// memory amplification.
		m.Deltas = make([]RegionDelta, 0, int(min(count, 64)))
	}
	for i := uint64(0); i < count; i++ {
		var d RegionDelta
		if d.Member, ok = u32(); !ok {
			return m, ErrCorruptFrame
		}
		if d.Epoch, ok = u64(); !ok {
			return m, ErrCorruptFrame
		}
		rl, ok := u64()
		if !ok || rl > uint64(len(rest)) {
			return m, ErrCorruptFrame
		}
		if rl > 0 {
			d.Region = append([]byte(nil), rest[:rl]...)
			rest = rest[rl:]
		}
		m.Deltas = append(m.Deltas, d)
	}
	if len(rest) != 0 {
		return m, ErrCorruptFrame
	}
	return m, nil
}

// parseCompactPayload decodes the all-varint frame family (TPing and
// up) with the codec's usual defensiveness: unknown types, truncation,
// overflow, and trailing garbage are all ErrCorruptFrame, never a panic.
func parseCompactPayload(p []byte) (Message, error) {
	m := Message{Type: MsgType(p[0])}
	rest := p[1:]
	u32 := func() (uint32, bool) {
		v, n := binary.Uvarint(rest)
		if n <= 0 || v > math.MaxUint32 {
			return 0, false
		}
		rest = rest[n:]
		return uint32(v), true
	}
	var ok bool
	switch m.Type {
	case TPing, TPong:
		v, n := binary.Uvarint(rest)
		if n <= 0 {
			return m, ErrCorruptFrame
		}
		m.Epoch = v
		rest = rest[n:]
	case TProbeC, TProbeReplyC:
		if m.Group, ok = u32(); !ok {
			return m, ErrCorruptFrame
		}
		if m.User, ok = u32(); !ok {
			return m, ErrCorruptFrame
		}
		if m.Type == TProbeReplyC {
			if len(rest) < 16 {
				return m, ErrCorruptFrame
			}
			m.Loc = readPoint(rest)
			rest = rest[16:]
		}
	case TPeers:
		v, n := binary.Uvarint(rest)
		if n <= 0 {
			return m, ErrCorruptFrame
		}
		m.Epoch = v
		rest = rest[n:]
		count, n := binary.Uvarint(rest)
		if n <= 0 {
			return m, ErrCorruptFrame
		}
		rest = rest[n:]
		if count > uint64(len(rest)) {
			// Every address needs at least its one-byte length prefix; a
			// count beyond the remaining payload is corruption and must be
			// rejected BEFORE sizing the slice (same forged-count hazard
			// as parseDeltaPayload).
			return m, ErrCorruptFrame
		}
		if count > 0 {
			m.Peers = make([]string, 0, int(min(count, 16)))
		}
		for i := uint64(0); i < count; i++ {
			l, n := binary.Uvarint(rest)
			if n <= 0 || l > uint64(len(rest)-n) {
				return m, ErrCorruptFrame
			}
			rest = rest[n:]
			m.Peers = append(m.Peers, string(rest[:l]))
			rest = rest[l:]
		}
	default:
		return m, ErrCorruptFrame
	}
	if len(rest) != 0 {
		return m, ErrCorruptFrame
	}
	return m, nil
}

func readPoint(p []byte) geom.Point {
	return geom.Pt(
		math.Float64frombits(binary.LittleEndian.Uint64(p[0:8])),
		math.Float64frombits(binary.LittleEndian.Uint64(p[8:16])),
	)
}
