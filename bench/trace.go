package main

import (
	"encoding/binary"
	"encoding/json"
	"os"
	"path/filepath"

	"mpn/internal/proto"
)

// span is one timed interval of a traced op. Spans of one op share its
// id; every child names the op's root span as its parent. Times are
// microseconds since the first traced op began.
type span struct {
	Name    string  `json:"name"`
	Op      int     `json:"op"`
	Parent  string  `json:"parent,omitempty"`
	StartUs float64 `json:"start_us"`
	EndUs   float64 `json:"end_us"`
}

func (s span) us() float64 { return s.EndUs - s.StartUs }

// frameInfo is one notification frame as a member received it.
type frameInfo struct {
	kind  byte // 'F' full TNotify, 'D' delta carrying a region, 'U' delta with nothing changed
	bytes int
}

// sniffer reassembles the server→client byte stream into frames and
// remembers the last notification frame's kind and size. It reads what
// proto.Client reads, from the benchmark's side of the socket.
type sniffer struct {
	buf  []byte
	last frameInfo
}

func (s *sniffer) feed(p []byte) {
	s.buf = append(s.buf, p...)
	for len(s.buf) >= 4 {
		n := int(binary.LittleEndian.Uint32(s.buf))
		if len(s.buf) < 4+n {
			return
		}
		if n > 0 {
			if kind := classify(s.buf[4 : 4+n]); kind != 0 {
				s.last = frameInfo{kind: kind, bytes: 4 + n}
			}
		}
		s.buf = s.buf[:copy(s.buf, s.buf[4+n:])]
	}
}

// classify tells a notification payload's kind, 0 for any other frame.
func classify(p []byte) byte {
	switch proto.MsgType(p[0]) {
	case proto.TNotify:
		return 'F'
	case proto.TNotifyDelta:
		// type, uvarint group, uvarint user, flags, uvarint epoch,
		// [meeting], uvarint record count.
		off := 1
		for i := 0; i < 2; i++ {
			_, n := binary.Uvarint(p[off:])
			if n <= 0 {
				return 0
			}
			off += n
		}
		if off >= len(p) {
			return 0
		}
		flags := p[off]
		off++
		_, n := binary.Uvarint(p[off:])
		if n <= 0 {
			return 0
		}
		off += n
		if flags&1 != 0 {
			off += 16
		}
		if off >= len(p) {
			return 0
		}
		if count, n := binary.Uvarint(p[off:]); n > 0 && count > 0 {
			return 'D'
		}
		return 'U'
	}
	return 0
}

// tracer holds a traced pass's spans in memory until the pass ends.
type tracer struct {
	epoch  int64
	spans  []span
	frames []frameInfo
}

// op records one op's spans. A report's four children are consecutive
// and sum to the op's latency: report written → last probe received →
// last probe reply written → first notification applied → last applied.
func (tr *tracer) op(id int, g *group, kind string, t0, t1 int64) {
	if tr.epoch == 0 {
		tr.epoch = t0
	}
	us := func(t int64) float64 { return float64(t-tr.epoch) / 1e3 }
	root := "op." + kind
	tr.spans = append(tr.spans, span{Name: root, Op: id, StartUs: us(t0), EndUs: us(t1)})
	child := func(name string, a, b int64) {
		if b < a {
			b = a
		}
		tr.spans = append(tr.spans, span{Name: name, Op: id, Parent: root, StartUs: us(a), EndUs: us(b)})
	}
	first, lastProbe, lastReply := t1, t0, t0
	reporter := int(g.reporter.Load())
	for _, m := range g.members {
		tr.frames = append(tr.frames, m.sniff.last)
		first = min(first, m.tNotify.Load())
		if kind == "join" || m.idx != reporter {
			lastProbe = max(lastProbe, m.tProbe.Load())
			lastReply = max(lastReply, m.tWrite.Load())
		}
	}
	if kind == "join" {
		// Registration has no probe round: the server plans as soon as
		// the last member's TRegister arrives.
		child("loadgen.dial_register", t0, lastReply)
		child("server.join_plan", lastReply, first)
	} else {
		child("proto.probe_fanout", t0, lastProbe)
		child("loadgen.probe_reply", lastProbe, lastReply)
		child("server.replan", lastReply, first)
	}
	child("proto.notify_fanout", first, t1)
}

// spanUs collects the durations of every span with the given name.
func spanUs(spans []span, name string) []float64 {
	var out []float64
	for _, s := range spans {
		if s.Name == name {
			out = append(out, s.us())
		}
	}
	return out
}

// writeTrace writes the spans to bench/out/trace-<workload>.json.
func writeTrace(root, workload string, spans []span) (string, error) {
	path := filepath.Join(root, "bench", "out", "trace-"+workload+".json")
	data, err := json.Marshal(struct {
		Workload string `json:"workload"`
		Spans    []span `json:"spans"`
	}{workload, spans})
	if err != nil {
		return "", err
	}
	return path, os.WriteFile(path, data, 0o644)
}
