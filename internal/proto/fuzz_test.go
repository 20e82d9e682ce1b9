package proto

import (
	"bytes"
	"fmt"
	"testing"

	"mpn/internal/geom"
)

// fuzzSeedMessages covers every frame type (TestFrameTruncationIsCorrupt
// checks that it does), with and without each optional part.
func fuzzSeedMessages() []Message {
	return []Message{
		{Type: TRegister, Group: 7, User: 2, GroupSize: 3,
			Flags: FlagDeltaCapable, Loc: geom.Pt(0.25, 0.5)},
		{Type: TReport, Group: 1, User: 0, Loc: geom.Pt(-1, 2)},
		{Type: TNotify, Group: 3, User: 1, Epoch: 9,
			Meeting: geom.Pt(0.4, 0.6), Region: []byte{1, 2, 3, 4}},
		{Type: TNotifyDelta, Group: 3, User: 1, Epoch: 12,
			MeetingChanged: true, Meeting: geom.Pt(0.4, 0.6), Region: []byte{9, 8, 7}},
		{Type: TNotifyDelta, Group: 300, User: 70000, Epoch: 1},
		{Type: TNack, Group: 3, User: 1, Epoch: 11},
		{Type: TError, Text: "planner exploded"},
		{Type: TPing, Epoch: 42},
		{Type: TPong, Epoch: 1 << 40},
		{Type: TProbe, Group: 9, User: 4},
		{Type: TProbeReply, Group: 9, User: 4, Loc: geom.Pt(0.1, 0.9)},
		{Type: TPeers, Epoch: 3, Peers: []string{"primary:9000", "standby:9001"}},
		{Type: TPeers, Epoch: 1 << 33, Peers: []string{""}},
		{Type: TPeers},
		{Type: TRegister, Group: 1 << 31, User: 1 << 20, GroupSize: 64},
		{Type: TNotify, Group: 200, User: 2},
		{Type: TError, Group: 200, Text: "group 200 is full"},
		{Type: TNotifyDelta, Group: 8, User: 3, Region: []byte{'C'}},
	}
}

// FuzzFrame feeds arbitrary payloads to the frame parser. The invariants:
// the parser never panics (truncation, overflow, forged counts — all must
// come back as ErrCorruptFrame), and any payload it accepts re-encodes to
// a stable canonical form (encode∘parse is idempotent at the byte level —
// byte comparison rather than struct comparison so NaN point coordinates,
// which compare unequal to themselves, cannot false-positive).
func FuzzFrame(f *testing.F) {
	for _, m := range fuzzSeedMessages() {
		f.Add(m.appendPayload(nil))
	}
	f.Fuzz(func(t *testing.T, payload []byte) {
		m, err := parsePayload(payload)
		if err != nil {
			return
		}
		re := m.appendPayload(nil)
		m2, err := parsePayload(re)
		if err != nil {
			t.Fatalf("re-encoded frame rejected: %v\nmessage: %+v\nbytes: %x", err, m, re)
		}
		re2 := m2.appendPayload(nil)
		if !bytes.Equal(re, re2) {
			t.Fatalf("encode∘parse not idempotent:\n first: %x\nsecond: %x", re, re2)
		}
	})
}

// TestFrameTruncationIsCorrupt asserts that every strict prefix of every
// seed frame is rejected with ErrCorruptFrame — a torn frame can never
// silently parse as a shorter valid one, and never panics.
func TestFrameTruncationIsCorrupt(t *testing.T) {
	seeded := map[MsgType]bool{}
	for _, m := range fuzzSeedMessages() {
		seeded[m.Type] = true
		payload := m.appendPayload(nil)
		for i := 0; i < len(payload); i++ {
			got, err := parsePayload(payload[:i])
			if err != ErrCorruptFrame {
				t.Fatalf("%v frame truncated to %d/%d bytes: err = %v (parsed %+v), want ErrCorruptFrame",
					m.Type, i, len(payload), err, got)
			}
		}
		if _, err := parsePayload(payload); err != nil {
			t.Fatalf("full %v frame rejected: %v", m.Type, err)
		}
	}
	for typ := MsgType(1); typ != 0; typ++ {
		if typ.String() != fmt.Sprintf("msgtype(%d)", uint8(typ)) && !seeded[typ] {
			t.Errorf("no fuzz seed for frame type %v", typ)
		}
	}
}

// TestCompactFrameRoundTrip round-trips the smallest frames through the
// public Write/Read pair.
func TestCompactFrameRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	msgs := []Message{
		{Type: TPing, Epoch: 7},
		{Type: TPong, Epoch: 7},
		{Type: TProbe, Group: 123456, User: 3},
		{Type: TProbeReply, Group: 123456, User: 3, Loc: geom.Pt(0.31, 0.77)},
	}
	for _, m := range msgs {
		if err := Write(&buf, m); err != nil {
			t.Fatal(err)
		}
	}
	// Heartbeats must be tiny: 4-byte length prefix + type + 1-byte seq.
	if buf.Len() > 4*16 {
		t.Fatalf("compact frames took %d bytes on the wire", buf.Len())
	}
	for _, want := range msgs {
		got, err := Read(&buf)
		if err != nil {
			t.Fatal(err)
		}
		if got.Type != want.Type || got.Group != want.Group || got.User != want.User ||
			got.Epoch != want.Epoch || got.Loc != want.Loc {
			t.Fatalf("round trip mismatch:\n got %+v\nwant %+v", got, want)
		}
	}
}
