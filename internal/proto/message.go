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
//	NotifyDelta server → client   step 3, delta form: region only if changed
//	Nack        client → server   a delta could not be applied; send full
//	Ping/Pong   either direction  liveness heartbeat
//
// Every frame is a 4-byte little-endian payload length followed by the
// payload: the type byte, then exactly the fields that type carries (see
// MsgType). Integers are uvarints, points are two little-endian float64s,
// and regions, texts and addresses are uvarint-length-prefixed bytes — in
// group 200, a report or a probe reply is 24 bytes on the wire and a
// probe 8. Safe regions travel in the mpn region encoding (25-byte
// circles — one tag byte plus three float64 values — road segments over
// a table of shared endpoints, and lattice-coded tile grids).
//
// # Delta notifications
//
// A client that sets FlagDeltaCapable on its Register frame opts into
// TNotifyDelta: a frame (~10 bytes on the wire when nothing changed)
// that carries the recipient's own region only when its epoch advanced
// since the server last delivered to that client, and the meeting point
// only when it moved. Regions are state, not diffs-of-diffs — a carried
// region is the complete encoding — so a single delta frame always
// repairs an arbitrary epoch gap. The frame's Epoch field is the
// recipient's region epoch after the update; an empty region means "your
// region is unchanged at Epoch", and a client holding a different epoch
// answers it with TNack, which the server repairs with a full TNotify.
// Full TNotify frames also carry the recipient's epoch so the client can
// resynchronize its tracking.
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

// Frame types and the payload fields each carries after its type byte:
//
//	TRegister     group user size flags(1 byte) loc
//	TReport       group user loc
//	TProbe        group user
//	TProbeReply   group user loc
//	TNotify       group user epoch meeting region
//	TError        group text
//	TNotifyDelta  group user dflags(1 byte) epoch [meeting] region
//	TNack         group user epoch
//	TPing, TPong  epoch
//	TPeers        epoch n {addr}×n
//
// A TNotifyDelta region is empty when the recipient's region is unchanged
// at epoch; an encoded region never is. Codes 3 and 4 are unassigned.
const (
	TRegister    MsgType = 1
	TReport      MsgType = 2
	TNotify      MsgType = 5
	TError       MsgType = 6
	TNotifyDelta MsgType = 7
	TNack        MsgType = 8
	// TPing and TPong are the heartbeat: either peer may send TPing
	// (Epoch carries an opaque sequence number) and the other answers
	// TPong echoing it. Two payload bytes in the steady state.
	TPing MsgType = 9
	TPong MsgType = 10
	// TProbe and TProbeReply are the probe round: the server asks a
	// member for its location and the member answers with it.
	TProbe      MsgType = 11
	TProbeReply MsgType = 12
	// TPeers is a server→client peer advertisement: the cluster's current
	// client-facing addresses (primary first) stamped with the fencing
	// epoch that published them. The server pushes one after a successful
	// registration and alongside every write refusal on a non-primary
	// node, so a failover-capable client always knows where to dial next.
	// Epoch carries the fencing epoch; Peers the addresses. Clients adopt
	// an advertisement only when its epoch is not older than the last one
	// adopted, so a delayed frame from a deposed primary cannot point
	// them back at a dead node.
	TPeers MsgType = 13
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
	case TPeers:
		return "peers"
	default:
		return fmt.Sprintf("msgtype(%d)", uint8(t))
	}
}

// FlagDeltaCapable, set on a Register frame, announces that the client
// understands TNotifyDelta frames. The server only sends deltas to
// members that negotiated them, so a client that opts out — or never
// sets the flag — receives full TNotify frames forever. It is the only
// Register flag: the server refuses a registration that sets any other
// bit.
const FlagDeltaCapable uint8 = 1 << 0

// deltaMeeting marks a TNotifyDelta frame that carries a meeting point
// (it changed since the last delivery to this client).
const deltaMeeting uint8 = 1 << 0

// MaxFrame bounds a frame's payload, protecting the reader from corrupt
// length prefixes. Tile regions are a few hundred bytes; 1 MiB is
// generous.
const MaxFrame = 1 << 20

// Message is one protocol frame. Fields are used according to Type (see
// the table at MsgType): Epoch is the recipient's region epoch on Notify,
// NotifyDelta and Nack frames, the heartbeat sequence number on Ping and
// Pong, and the fencing epoch on Peers; Region is nil on a NotifyDelta
// whose region is unchanged; Error carries Text.
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

	// MeetingChanged belongs to TNotifyDelta frames: the meeting point
	// is serialized only when it changed.
	MeetingChanged bool

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

// appendPayload serializes m into buf (without the length prefix): the
// type byte, then the fields of m.Type's row of the MsgType table.
func (m Message) appendPayload(buf []byte) []byte {
	buf = append(buf, byte(m.Type))
	switch m.Type {
	case TRegister:
		buf = appendUvarints(buf, uint64(m.Group), uint64(m.User), uint64(m.GroupSize))
		buf = append(buf, m.Flags)
		buf = appendPoint(buf, m.Loc)
	case TReport, TProbeReply:
		buf = appendUvarints(buf, uint64(m.Group), uint64(m.User))
		buf = appendPoint(buf, m.Loc)
	case TProbe:
		buf = appendUvarints(buf, uint64(m.Group), uint64(m.User))
	case TNotify:
		buf = appendUvarints(buf, uint64(m.Group), uint64(m.User), m.Epoch)
		buf = appendPoint(buf, m.Meeting)
		buf = appendBytes(buf, m.Region)
	case TError:
		buf = binary.AppendUvarint(buf, uint64(m.Group))
		buf = appendBytes(buf, m.Text)
	case TNotifyDelta:
		buf = appendUvarints(buf, uint64(m.Group), uint64(m.User))
		fl := uint8(0)
		if m.MeetingChanged {
			fl |= deltaMeeting
		}
		buf = append(buf, fl)
		buf = binary.AppendUvarint(buf, m.Epoch)
		if m.MeetingChanged {
			buf = appendPoint(buf, m.Meeting)
		}
		buf = appendBytes(buf, m.Region)
	case TNack:
		buf = appendUvarints(buf, uint64(m.Group), uint64(m.User), m.Epoch)
	case TPing, TPong:
		buf = binary.AppendUvarint(buf, m.Epoch)
	case TPeers:
		buf = appendUvarints(buf, m.Epoch, uint64(len(m.Peers)))
		for _, a := range m.Peers {
			buf = appendBytes(buf, a)
		}
	}
	return buf
}

func appendUvarints(buf []byte, vs ...uint64) []byte {
	for _, v := range vs {
		buf = binary.AppendUvarint(buf, v)
	}
	return buf
}

func appendBytes[T string | []byte](buf []byte, b T) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(b)))
	return append(buf, b...)
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

// frameCap is a buffer capacity that holds m's whole frame, so encoding
// into a fresh buffer allocates once: the length prefix, the type byte
// and any type's fixed fields at full varint width take at most 52 bytes
// (TNotifyDelta's, region length included), and a peer address adds 10
// plus its bytes.
func (m Message) frameCap() int {
	n := 52 + len(m.Region) + len(m.Text)
	for _, a := range m.Peers {
		n += binary.MaxVarintLen64 + len(a)
	}
	return n
}

// Write frames and writes m.
func Write(w io.Writer, m Message) error {
	frame, err := m.AppendFrame(make([]byte, 0, m.frameCap()))
	if err != nil {
		return err
	}
	_, err = w.Write(frame)
	return err
}

// Read reads one framed message. Its Region shares the frame's freshly
// allocated payload.
func Read(r io.Reader) (Message, error) { return readFrame(r, make([]byte, 4)) }

// readFrame is Read into buf (at least 4 bytes) when the frame fits, into
// a fresh buffer otherwise; the message's Region shares that buffer.
func readFrame(r io.Reader, buf []byte) (Message, error) {
	if _, err := io.ReadFull(r, buf[:4]); err != nil {
		return Message{}, err
	}
	n := binary.LittleEndian.Uint32(buf)
	if n > MaxFrame {
		return Message{}, ErrFrameTooLarge
	}
	if n > uint32(len(buf)) {
		buf = make([]byte, n)
	}
	if _, err := io.ReadFull(r, buf[:n]); err != nil {
		return Message{}, err
	}
	return parsePayload(buf[:n])
}

// parsePayload decodes one payload. Unknown types, truncation, overflow,
// unknown delta flags and trailing bytes are all ErrCorruptFrame, never a
// panic.
func parsePayload(p []byte) (Message, error) {
	if len(p) == 0 {
		return Message{}, ErrCorruptFrame
	}
	m := Message{Type: MsgType(p[0])}
	c := cursor{p: p[1:]}
	switch m.Type {
	case TRegister:
		m.Group, m.User, m.GroupSize = c.u32(), c.u32(), c.u32()
		m.Flags = c.u8()
		m.Loc = c.point()
	case TReport, TProbeReply:
		m.Group, m.User = c.u32(), c.u32()
		m.Loc = c.point()
	case TProbe:
		m.Group, m.User = c.u32(), c.u32()
	case TNotify:
		m.Group, m.User, m.Epoch = c.u32(), c.u32(), c.uvarint()
		m.Meeting = c.point()
		m.Region = c.bytes()
	case TError:
		m.Group = c.u32()
		m.Text = string(c.bytes())
	case TNotifyDelta:
		m.Group, m.User = c.u32(), c.u32()
		fl := c.u8()
		if fl&^deltaMeeting != 0 {
			c.bad = true
		}
		m.Epoch = c.uvarint()
		if fl&deltaMeeting != 0 {
			m.MeetingChanged = true
			m.Meeting = c.point()
		}
		m.Region = c.bytes()
	case TNack:
		m.Group, m.User, m.Epoch = c.u32(), c.u32(), c.uvarint()
	case TPing, TPong:
		m.Epoch = c.uvarint()
	case TPeers:
		m.Epoch = c.uvarint()
		if n := c.count(); n > 0 {
			m.Peers = make([]string, 0, min(n, maxPrealloc))
			for i := 0; i < n && !c.bad; i++ {
				m.Peers = append(m.Peers, string(c.bytes()))
			}
		}
	default:
		return Message{}, ErrCorruptFrame
	}
	if c.bad || len(c.p) != 0 {
		return Message{}, ErrCorruptFrame
	}
	return m, nil
}

// maxPrealloc caps the slice an address count may preallocate: real
// frames carry a cluster's few addresses, and append grows the rare
// larger (still payload-backed) frame, so a forged count cannot turn a
// small frame into a many-times larger allocation.
const maxPrealloc = 64

// cursor is the decoder's bounds-checked view of the rest of a payload.
// A read past the end, a malformed varint or an out-of-range value marks
// it bad and returns a zero value, so a decoder reads its fields straight
// through and checks bad once.
type cursor struct {
	p   []byte
	bad bool
}

func (c *cursor) uvarint() uint64 {
	v, n := binary.Uvarint(c.p)
	if n <= 0 {
		c.bad = true
		return 0
	}
	c.p = c.p[n:]
	return v
}

func (c *cursor) u32() uint32 {
	v := c.uvarint()
	if v > math.MaxUint32 {
		c.bad = true
		return 0
	}
	return uint32(v)
}

func (c *cursor) u8() uint8 {
	b := c.take(1)
	if len(b) == 0 {
		return 0
	}
	return b[0]
}

func (c *cursor) point() geom.Point {
	b := c.take(16)
	if len(b) == 0 {
		return geom.Point{}
	}
	return readPoint(b)
}

// bytes reads a length-prefixed byte string, nil when empty.
func (c *cursor) bytes() []byte {
	b := c.take(c.uvarint())
	if len(b) == 0 {
		return nil
	}
	return b
}

// count reads an address count, refusing one the rest of the payload
// could not hold at one byte (a length prefix) an address — a forged
// count is corruption, and must be caught before it sizes a slice.
func (c *cursor) count() int {
	n := c.uvarint()
	if c.bad || n > uint64(len(c.p)) {
		c.bad = true
		return 0
	}
	return int(n)
}

func (c *cursor) take(n uint64) []byte {
	if c.bad || n > uint64(len(c.p)) {
		c.bad = true
		return nil
	}
	b := c.p[:n:n]
	c.p = c.p[n:]
	return b
}

func readPoint(p []byte) geom.Point {
	return geom.Pt(
		math.Float64frombits(binary.LittleEndian.Uint64(p[0:8])),
		math.Float64frombits(binary.LittleEndian.Uint64(p[8:16])),
	)
}
