package proto

import (
	"errors"
	"fmt"
	"io"
	"log"
	"slices"
	"sync"
	"sync/atomic"

	"mpn/internal/core"
	"mpn/internal/faultinject"
	"mpn/internal/geom"
	"mpn/internal/netmpn"
	"mpn/internal/tileenc"
)

// SubmitFunc is the coordinator's one compute backend: every replan is
// handed to it, which is how the coordinator stays decoupled from the
// planner implementation. users[i] is the location of ids[i], the group's
// members in ascending user-id order. ids is immutable and may be kept;
// users is valid only during the call. A serving backend (cmd/mpnserver's
// sharded group engine) enqueues every snapshot, a group's first
// included, returns ok=false, and answers later through
// Coordinator.Deliver, echoing ids so the delivery can be checked against
// membership churn. A backend that computes inline (test doubles and the
// benchmark's in-process replay) returns the plan with ok=true instead,
// and the coordinator notifies the members at once. SubmitFunc is called
// with the coordinator lock held — which is what guarantees a group's
// snapshots reach the backend in report order — so a serving backend must
// only enqueue: a plan computed here stalls every group's frames, and a
// backend whose delivery takes the coordinator lock must never wait for
// it.
//
// The coordinator keeps each member's region to compare her next one
// with (see Deliver), so a backend must not modify a region after
// handing it over. The []uint64 result is ignored; it stays in the
// signature only because bench/ compiles against it, and is removed with
// ROADMAP 9.
type SubmitFunc func(gid uint32, ids []uint32, users []geom.Point) (meeting geom.Point, regions []core.SafeRegion, epochs []uint64, ok bool)

// WriteGateFunc decides whether this node currently accepts client
// writes (registrations and reports). A nil error admits the write;
// peers is then the cluster's client-facing addresses (primary first)
// and epoch the fencing epoch that published them, pushed to freshly
// registered members as a TPeers frame. A non-nil error refuses the
// write: the client receives the peer list (its redirect target) and
// then the error, so a standby or deposed primary steers clients to the
// live one instead of silently serving writes it has no right to accept.
type WriteGateFunc func() (peers []string, epoch uint64, err error)

// Coordinator is the server side of the Fig. 3 protocol: it accepts
// connections (one per user), assembles groups, and runs the
// report → probe → notify exchange, recomputing plans via its SubmitFunc.
//
// Outbound frames are encoded when they are sent and written at once
// with a non-blocking attempt when the transport offers one (TryWriter).
// What the socket does not take — and every frame on a transport without
// one, e.g. net.Pipe — waits in the member's backlog for a drain
// goroutine that lives only while the backlog is non-empty. So the
// coordinator never blocks on a slow (or synchronous) transport while
// holding its lock — a deadlock hazard otherwise, since clients may be
// writing to the server at the same moment.
type Coordinator struct {
	submit SubmitFunc // the compute backend
	logger *log.Logger

	// gate, when set, is consulted before every client write (see
	// WriteGateFunc and SetWriteGate).
	gate WriteGateFunc

	// onEmpty, when set, runs (under the lock) when the last member of a
	// group disconnects — the engine-backed server uses it to unregister
	// the group from the compute backend before a reuse of the group id
	// can observe the stale mapping.
	onEmpty func(gid uint32)

	// slowLimit is the slow-client policy knob (see SetSlowClientLimit):
	// after this many consecutive outbox drops the member's connection is
	// kicked. 0 selects DefaultSlowClientLimit; negative disables kicks.
	slowLimit int

	stats coordCounters

	mu     sync.Mutex
	groups map[uint32]*group
	frame  []byte       // encode scratch of every send, guarded by mu
	users  []geom.Point // replanLocked's snapshot scratch, guarded by mu
}

// coordCounters are the coordinator's monotone counters, updated with
// atomics so Stats never takes the coordinator lock.
type coordCounters struct {
	droppedFrames   atomic.Uint64
	slowKicks       atomic.Uint64
	nackRepairs     atomic.Uint64
	staleDeliveries atomic.Uint64
	protocolErrors  atomic.Uint64
	heartbeats      atomic.Uint64
	writeRefusals   atomic.Uint64
}

// CoordStats is a snapshot of the coordinator's failure-semantics
// counters (see Coordinator.Stats).
type CoordStats struct {
	// DroppedFrames counts outbound frames discarded because a member's
	// outbox was full (the member is repaired by a later full notify),
	// because the frame could not be encoded (it exceeded MaxFrame), or
	// because an earlier write to her connection failed.
	DroppedFrames uint64
	// SlowClientDisconnects counts members kicked by the slow-client
	// policy: their outbox stayed full for SlowClientLimit consecutive
	// deliveries.
	SlowClientDisconnects uint64
	// NackRepairs counts full notifies sent in answer to client NACKs.
	NackRepairs uint64
	// StaleDeliveries counts async plan deliveries dropped because group
	// membership changed while the plan was being computed, or because
	// the plan belongs to an earlier incarnation of the group.
	StaleDeliveries uint64
	// ProtocolErrors counts client frames rejected as protocol
	// violations (wrong type, register twice, report before register…).
	ProtocolErrors uint64
	// Heartbeats counts TPing frames answered with TPong.
	Heartbeats uint64
	// WriteRefusals counts registrations and reports refused by the
	// write gate (this node was not the primary), each answered with a
	// peer redirect.
	WriteRefusals uint64
}

// Stats returns a snapshot of the coordinator's counters. Safe to call
// from any goroutine; never blocks on the coordinator lock.
func (c *Coordinator) Stats() CoordStats {
	return CoordStats{
		DroppedFrames:         c.stats.droppedFrames.Load(),
		SlowClientDisconnects: c.stats.slowKicks.Load(),
		NackRepairs:           c.stats.nackRepairs.Load(),
		StaleDeliveries:       c.stats.staleDeliveries.Load(),
		ProtocolErrors:        c.stats.protocolErrors.Load(),
		Heartbeats:            c.stats.heartbeats.Load(),
		WriteRefusals:         c.stats.writeRefusals.Load(),
	}
}

// DefaultSlowClientLimit is how many consecutive outbox drops a member
// gets before the slow-client policy kicks its connection. Drops are
// already coalesced — a member with a full outbox keeps only needing one
// repair frame — so consecutive drops mean the client has not drained a
// single frame of its full outbox across that many deliveries: it is not
// slow, it is gone.
const DefaultSlowClientLimit = 8

// SetSlowClientLimit configures the slow-client coalesce-then-disconnect
// policy: a member whose outbox drops n consecutive outbound frames has
// its connection closed (observable in Stats().SlowClientDisconnects and
// the log, with the drop streak as the reason). 0 selects
// DefaultSlowClientLimit; negative disables kicking — drops then only
// coalesce. Call before serving connections.
func (c *Coordinator) SetSlowClientLimit(n int) { c.slowLimit = n }

func (c *Coordinator) slowClientLimit() int {
	if c.slowLimit == 0 {
		return DefaultSlowClientLimit
	}
	return c.slowLimit
}

// SetWriteGate installs the write-admission gate (see WriteGateFunc).
// Call it before serving connections. The gate runs without the
// coordinator lock, so it may consult replication state freely.
func (c *Coordinator) SetWriteGate(fn WriteGateFunc) { c.gate = fn }

// SetGroupEmptyHook registers fn to run whenever a group loses its last
// member. Call it before serving connections. fn runs with the
// coordinator lock held — so a re-registration under the same group id
// cannot interleave with the teardown — and therefore must not call back
// into the coordinator or block.
func (c *Coordinator) SetGroupEmptyHook(fn func(gid uint32)) { c.onEmpty = fn }

// outboxSize bounds a member's outbox — her backlog — in frames (the
// unwritten tail of a frame counts as one); a send that finds it full is
// refused and counted as a drop. Frames the socket takes at once never
// enter it. Recording the queue length after every enqueue, the
// high-water mark was 1 frame on all five bench/ workloads. The largest
// burst one critical section sends to one member is 2 frames (a
// registration's TNotify plus TPeers, or refuseWrite's TPeers plus
// TError). Over net.Pipe, which has no non-blocking write and whose
// writes wait for the reader, the closed-loop fleet of
// TestFleetTrafficFitsOutbox dropped frames in 50 of 50 runs at 1 slot
// and 35 of 50 at 2 (20 of 20 each under -race), and in none of 50 (20
// under -race) at 16. The backlog fills only while the
// drain is blocked on a full socket, and then the write deadline is the
// real bound: more slots only delay the drop → needFull → kick path the
// slow-client policy already takes.
const outboxSize = 16

// group is the server-side state of one user group.
type group struct {
	size uint32
	// probing is set while a probe round is outstanding, and awaiting
	// counts the members still marked awaited; strays counts the round's
	// reports from members it does not await (see handleReport).
	awaiting, strays uint32
	probing          bool
	// lastMeeting/havePlan retain the last distributed plan's meeting
	// point so a NACK can be repaired from the member's cache alone.
	havePlan    bool
	lastMeeting geom.Point
	members     map[uint32]*member
	ids         []uint32 // sorted member ids, nil after a membership change; never modified
}

// encRegion is a member's cached region: the last region encoded for
// her, its encoding and its epoch (data is nil when nothing is cached).
// data is rewritten in place under the coordinator lock; frames copy it.
type encRegion struct {
	region core.SafeRegion
	epoch  uint64
	data   []byte
}

// TryWriter is a transport that can write without waiting. TryWrite
// writes whatever the transport accepts now: a short count with a nil
// error means the rest would block. A member whose connection implements
// it writes each frame inline; without it every frame takes the backlog.
// p is the coordinator's scratch: TryWrite must not keep it.
type TryWriter interface {
	TryWrite(p []byte) (int, error)
}

type member struct {
	user uint32
	// dead is set by the first failed write: the member is being torn
	// down, and sends are refused (guarded by wmu); awaited, while her
	// probe reply is missing (coordinator lock). Both cost no padding here.
	dead    bool
	awaited bool

	// w is the member's connection, try its non-blocking write (nil when
	// it has none). After registration every write to the connection goes
	// through send, so frames are never interleaved.
	w      io.Writer
	try    TryWriter
	logger *log.Logger

	// wmu guards dead and the backlog; the lock order is coordinator lock,
	// then wmu. backlog holds encoded frames (a partially written frame's
	// tail first) that the drain goroutine writes with one Write each;
	// draining is non-nil while that goroutine runs and closed when it
	// exits. While it runs every send joins the backlog, so frames reach
	// the peer in send order.
	wmu      sync.Mutex
	backlog  [][]byte
	draining chan struct{}

	// loc is the member's last reported location (registration, escape
	// report or probe reply), guarded by the coordinator lock.
	loc geom.Point

	// Delta-protocol state, guarded by the coordinator lock: delta is
	// the registration-time negotiation; needFull forces the next
	// delivery to be a full TNotify (fresh connections start true, and
	// any dropped frame or NACK sets it — the server never assumes a
	// client holds state it cannot prove was enqueued); epoch and
	// meeting are the last values successfully enqueued to this member;
	// enc is her region in the latest distributed plan and its encoding,
	// so an unchanged region is never re-encoded and a NACK is repaired
	// from it.
	delta    bool
	needFull bool
	epoch    uint64
	meeting  geom.Point
	enc      encRegion

	// drops counts consecutive outbox drops (guarded by the coordinator
	// lock); any successful send resets it. kick, when non-nil, closes
	// the member's connection — the slow-client policy's teeth.
	drops int
	kick  func()
}

// noteSend updates the slow-client drop streak after a send attempt and
// applies the policy: limit consecutive drops close the connection. Every
// send's result goes through it, so DroppedFrames counts every drop. A
// member whose write failed was already kicked, so she is not kicked
// again. Must be called with the coordinator lock held.
func (m *member) noteSend(c *Coordinator, gid uint32, ok bool) {
	if ok {
		m.drops = 0
		return
	}
	m.drops++
	c.stats.droppedFrames.Add(1)
	if limit := c.slowClientLimit(); limit > 0 && m.drops == limit && m.kick != nil && !m.isDead() {
		c.stats.slowKicks.Add(1)
		c.logger.Printf("group %d: user %d disconnected by slow-client policy (%d consecutive outbox drops)",
			gid, m.user, m.drops)
		m.kick()
	}
}

// newMember sets up the write path for one connection; no goroutine runs
// until a frame has to wait (see send).
func newMember(user uint32, w io.Writer, logger *log.Logger) *member {
	m := &member{user: user, w: w, logger: logger, needFull: true}
	m.try, _ = w.(TryWriter)
	return m
}

// send encodes msg into *scratch (the coordinator's, under its lock) and
// writes it without blocking; it reports whether the member accepted it.
// With no drain running and a transport that can try, the frame is
// written inline; whatever the socket did not take is copied into the
// backlog, and a drain goroutine is started to write it. A frame too
// large to encode (over MaxFrame) is refused here, like one that finds the
// backlog full or the member dead, so the caller counts it as a drop.
func (m *member) send(scratch *[]byte, msg Message) bool {
	frame, err := msg.AppendFrame((*scratch)[:0])
	if cap(frame) <= maxScratch { // a rare huge frame does not pin its buffer
		*scratch = frame[:0]
	}
	if err != nil {
		return false
	}
	m.wmu.Lock()
	if m.dead || len(m.backlog) == outboxSize {
		m.wmu.Unlock()
		return false
	}
	if m.draining == nil && m.try != nil {
		n, err := m.try.TryWrite(frame)
		if err != nil {
			m.wmu.Unlock()
			m.fail(err)
			return false
		}
		if n == len(frame) {
			m.wmu.Unlock()
			return true
		}
		frame = frame[n:]
	}
	m.backlog = append(m.backlog, append(make([]byte, 0, len(frame)), frame...))
	if m.draining == nil {
		m.draining = make(chan struct{})
		go m.drain(m.draining)
	}
	m.wmu.Unlock()
	return true
}

const (
	maxScratch  = 64 << 10 // bounds the coordinator's encode scratch
	readBufSize = 48       // fits every client frame (a TRegister is ≤ 37 B)
)

// drain writes the backlog in order, one blocking Write per frame (under
// the transport's write deadline), and exits once it is empty or a write
// failed; done is closed on exit.
func (m *member) drain(done chan struct{}) {
	defer close(done)
	for {
		m.wmu.Lock()
		if len(m.backlog) == 0 || m.dead {
			m.backlog, m.draining = nil, nil
			m.wmu.Unlock()
			return
		}
		frame := m.backlog[0]
		m.backlog = slices.Delete(m.backlog, 0, 1)
		m.wmu.Unlock()
		if _, err := m.w.Write(frame); err != nil {
			m.fail(err)
		}
	}
}

// fail tears down a member whose write failed: she is marked dead, and
// the kick closes the connection, so her read loop ends and removes her.
// A frame cut short leaves the stream unusable, so nothing more is
// written.
func (m *member) fail(err error) {
	m.wmu.Lock()
	m.dead = true
	m.wmu.Unlock()
	m.logger.Printf("user %d: write failed: %v", m.user, err)
	if m.kick != nil {
		m.kick()
	}
}

func (m *member) isDead() bool {
	m.wmu.Lock()
	defer m.wmu.Unlock()
	return m.dead
}

// close returns once the backlog was written, or a write failed.
func (m *member) close() {
	m.wmu.Lock()
	done := m.draining
	m.wmu.Unlock()
	if done != nil {
		<-done
	}
}

// NewAsyncCoordinator builds a coordinator over its compute backend (see
// SubmitFunc). With a backend that enqueues, the transport's read loops
// never wait on the planner, the coordinator lock is never held across a
// computation, and results return through Deliver. logger may be nil to
// disable logging.
func NewAsyncCoordinator(submit SubmitFunc, logger *log.Logger) *Coordinator {
	if logger == nil {
		logger = log.New(io.Discard, "", 0)
	}
	return &Coordinator{
		submit: submit,
		logger: logger,
		groups: map[uint32]*group{},
	}
}

// Deliver fans a completed asynchronous plan out to the group's members
// (step 3 of the protocol, decoupled from the submission that caused it).
// ids must be the id ordering the SubmitFunc received for the snapshot
// that was computed (regions[i] belongs to ids[i]); pass nil to skip the
// membership check (error deliveries). A delivery that races membership
// churn — the computed ids no longer exactly match the current members —
// is dropped, so a rejoining user can never receive a region computed for
// a departed one; the next escape report triggers a fresh replan from
// current state.
//
// live, when non-nil, says whether the plan still belongs to the group
// under gid: the group may have dissolved and re-formed with the same
// member ids since the backend took the submission, and only the backend
// can tell its incarnations apart. Deliver calls it with the coordinator
// lock held — so no dissolve or registration can slip in between the
// check and the send — and drops the plan as stale when it returns
// false. live may take the backend's own locks (the order is coordinator
// lock first, as for SubmitFunc) but must not call back into the
// coordinator.
//
// Each member's region is compared with the one last encoded for her
// (core.SafeRegion.Equal): an equal region is not re-encoded and keeps
// its epoch, so a delta-capable member receives her region only when its
// content changed since her last delivery; a changed one is encoded and
// stamped with her next epoch. The coordinator keeps the regions, so the
// caller must not modify them afterwards.
func (c *Coordinator) Deliver(gid uint32, ids []uint32, live func() bool, meeting geom.Point, regions []core.SafeRegion, err error) {
	faultinject.Fire(faultinject.CoordDeliver)
	c.mu.Lock()
	defer c.mu.Unlock()
	g := c.groups[gid]
	if g == nil {
		return
	}
	if live != nil && !live() {
		c.stats.staleDeliveries.Add(1)
		c.logger.Printf("group %d: dropping delivery computed for an earlier incarnation of the group", gid)
		return
	}
	current := g.memberIDs()
	if err != nil {
		c.logger.Printf("group %d: plan failed: %v", gid, err)
		for _, uid := range current {
			mb := g.members[uid]
			mb.noteSend(c, gid, mb.send(&c.frame, Message{Type: TError, Group: gid, Text: err.Error()}))
		}
		return
	}
	if len(current) != len(regions) || (ids != nil && !slices.Equal(ids, current)) {
		c.stats.staleDeliveries.Add(1)
		c.logger.Printf("group %d: dropping stale delivery (members %v, computed for %v, %d regions)",
			gid, current, ids, len(regions))
		return
	}
	c.notifyLocked(gid, g, current, meeting, regions)
}

// errNonFinite ends the session of a client that sent a NaN or ±Inf
// location (see ServeConn).
var errNonFinite = errors.New("proto: non-finite location")

// ServeConn runs the read loop for one client connection until EOF or a
// protocol error, then removes the member from its group. It is intended
// to be called in its own goroutine per accepted connection.
func (c *Coordinator) ServeConn(conn io.ReadWriteCloser) error {
	defer conn.Close()
	var gid, uid uint32
	registered := false
	defer func() {
		if registered {
			c.removeMember(gid, uid)
		}
	}()
	buf := make([]byte, readBufSize) // no handled message keeps a slice of it
	for {
		msg, err := readFrame(conn, buf)
		if err != nil {
			if errors.Is(err, io.EOF) {
				return nil
			}
			return err
		}
		// A NaN or ±Inf location (registration, report or probe reply; Loc
		// is zero on every other frame) would be planned as if that member
		// did not exist — a wrong optimum for the whole group — so it ends
		// the session before anything is stored. x-x is 0 for every finite
		// x and NaN otherwise.
		if l := msg.Loc; l.X-l.X != 0 || l.Y-l.Y != 0 {
			c.stats.protocolErrors.Add(1)
			c.reply(conn, registered, gid, uid, Message{Type: TError, Group: gid, Text: errNonFinite.Error()})
			return errNonFinite
		}
		switch msg.Type {
		case TRegister:
			if registered {
				c.protocolError(conn, registered, gid, uid, "already registered")
				continue
			}
			if c.gate != nil {
				// Before registration no member exists, so the redirect
				// is written directly — nothing else owns the connection.
				if peers, epoch, gerr := c.gate(); gerr != nil {
					c.stats.writeRefusals.Add(1)
					_ = Write(conn, Message{Type: TPeers, Epoch: epoch, Peers: peers})
					_ = Write(conn, Message{Type: TError, Text: gerr.Error()})
					continue
				}
			}
			if err := c.register(msg, conn); err != nil {
				c.protocolError(conn, registered, gid, uid, err.Error())
				continue
			}
			gid, uid, registered = msg.Group, msg.User, true
			c.pushPeers(gid, uid)
		case TReport:
			if !registered {
				c.protocolError(conn, registered, gid, uid, "report before register")
				continue
			}
			if c.gate != nil {
				if peers, epoch, gerr := c.gate(); gerr != nil {
					c.refuseWrite(msg.Group, msg.User, peers, epoch, gerr)
					continue
				}
			}
			c.handleReport(msg)
		case TProbeReply:
			if !registered {
				c.protocolError(conn, registered, gid, uid, "reply before register")
				continue
			}
			c.handleProbeReply(msg)
		case TPing:
			c.stats.heartbeats.Add(1)
			c.reply(conn, registered, gid, uid, Message{Type: TPong, Epoch: msg.Epoch})
		case TNack:
			if !registered {
				c.protocolError(conn, registered, gid, uid, "nack before register")
				continue
			}
			c.handleNack(msg)
		default:
			c.protocolError(conn, registered, gid, uid, fmt.Sprintf("unexpected %v from client", msg.Type))
		}
	}
}

// pushPeers enqueues the current peer advertisement to a freshly
// registered member, so failover-capable clients learn the standby
// addresses before they ever need them. The gate is consulted outside
// the coordinator lock (it may take replication locks of its own); the
// frame is sent through the member like any other delivery.
func (c *Coordinator) pushPeers(gid, uid uint32) {
	if c.gate == nil {
		return
	}
	peers, epoch, err := c.gate()
	if err != nil || len(peers) == 0 {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	g := c.groups[gid]
	if g == nil {
		return
	}
	if mb := g.members[uid]; mb != nil {
		mb.noteSend(c, gid, mb.send(&c.frame, Message{Type: TPeers, Epoch: epoch, Peers: peers}))
	}
}

// refuseWrite answers a gated-off report from a registered member: a
// peer redirect followed by an error, both sent through the member — a
// direct write here could overtake her backlog or split a frame she is
// writing. The error ends the client's session; a reconnecting client
// then dials the advertised primary.
func (c *Coordinator) refuseWrite(gid, uid uint32, peers []string, epoch uint64, gerr error) {
	c.stats.writeRefusals.Add(1)
	c.mu.Lock()
	defer c.mu.Unlock()
	g := c.groups[gid]
	if g == nil {
		return
	}
	mb := g.members[uid]
	if mb == nil {
		return
	}
	if len(peers) > 0 {
		mb.noteSend(c, gid, mb.send(&c.frame, Message{Type: TPeers, Epoch: epoch, Peers: peers}))
	}
	mb.noteSend(c, gid, mb.send(&c.frame, Message{Type: TError, Group: gid, Text: gerr.Error()}))
}

// protocolError counts a rejected client frame and answers it with a
// TError through reply.
func (c *Coordinator) protocolError(conn io.Writer, registered bool, gid, uid uint32, text string) {
	c.stats.protocolErrors.Add(1)
	c.reply(conn, registered, gid, uid, Message{Type: TError, Text: text})
}

// reply answers the connection's own peer: a heartbeat's TPong echoing
// the sequence number, or a TError. A registered member's frame is sent
// through her — a direct write could overtake her backlog or split a frame
// she is writing, and a wedged backlog failing the heartbeat is exactly
// the liveness signal the peer wants. Before registration the read loop
// may write directly (nothing else owns the connection yet).
func (c *Coordinator) reply(conn io.Writer, registered bool, gid, uid uint32, msg Message) {
	if !registered {
		_ = Write(conn, msg)
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	g := c.groups[gid]
	if g == nil {
		return
	}
	if mb := g.members[uid]; mb != nil {
		mb.noteSend(c, gid, mb.send(&c.frame, msg))
	}
}

// register adds the member; when the group completes, its locations go
// to the backend for the group's first plan (see replanLocked).
func (c *Coordinator) register(msg Message, w io.Writer) error {
	if msg.GroupSize == 0 {
		return errors.New("group size must be positive")
	}
	if msg.Flags&^FlagDeltaCapable != 0 {
		return fmt.Errorf("unknown register flags %#x", msg.Flags)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	g := c.groups[msg.Group]
	if g == nil {
		g = &group{size: msg.GroupSize, members: map[uint32]*member{}}
		c.groups[msg.Group] = g
	}
	if g.size != msg.GroupSize {
		return fmt.Errorf("group %d has size %d, not %d", msg.Group, g.size, msg.GroupSize)
	}
	if _, dup := g.members[msg.User]; dup {
		return fmt.Errorf("user %d already in group %d", msg.User, msg.Group)
	}
	if uint32(len(g.members)) >= g.size {
		return fmt.Errorf("group %d is full", msg.Group)
	}
	mb := newMember(msg.User, w, c.logger)
	mb.loc = msg.Loc
	mb.delta = msg.Flags&FlagDeltaCapable != 0
	if closer, ok := w.(io.Closer); ok {
		// The slow-client policy's kick: closing the connection fails the
		// member's read loop, which removes it through the normal path.
		mb.kick = func() { _ = closer.Close() }
	}
	g.members[msg.User] = mb
	g.ids = nil
	c.logger.Printf("group %d: user %d registered (%d/%d)",
		msg.Group, msg.User, len(g.members), g.size)
	if uint32(len(g.members)) == g.size {
		c.replanLocked(msg.Group, g)
	}
	return nil
}

// handleReport is step 1: record the reporter's location and probe the
// others (step 2). With a group of one, replan immediately.
func (c *Coordinator) handleReport(msg Message) {
	c.mu.Lock()
	defer c.mu.Unlock()
	g := c.groups[msg.Group]
	if g == nil || uint32(len(g.members)) != g.size {
		return
	}
	mb := g.members[msg.User]
	if mb == nil {
		return
	}
	mb.loc = msg.Loc
	if g.probing {
		// A probe round is already in flight (e.g. two users escaped in
		// the same tick); the fresh location is recorded and the pending
		// round will cover it. A reporter the round does not await
		// started it or already answered, and reports again because no
		// plan came: a probe reply lost on the way would stall the round
		// for good, so the members it still awaits are asked again. A
		// client outside her region may report every tick, so the round
		// re-probes only at its 1st, 2nd, 4th, 8th, … such report.
		if mb.awaited {
			mb.awaited, g.awaiting = false, g.awaiting-1
		} else {
			g.strays++
			if g.strays&(g.strays-1) == 0 {
				c.probeLocked(msg.Group, g)
			}
		}
		c.maybeReplanLocked(msg.Group, g)
		return
	}
	g.probing, g.awaiting, g.strays = true, g.size-1, 0
	for uid, other := range g.members {
		other.awaited = uid != msg.User
	}
	c.probeLocked(msg.Group, g)
	c.maybeReplanLocked(msg.Group, g)
}

// probeLocked sends a TProbe to every member the probe round awaits; one
// whose probe is dropped is no longer awaited.
func (c *Coordinator) probeLocked(gid uint32, g *group) {
	for _, uid := range g.memberIDs() {
		other := g.members[uid]
		if !other.awaited {
			continue
		}
		ok := other.send(&c.frame, Message{Type: TProbe, Group: gid, User: uid})
		other.noteSend(c, gid, ok)
		if !ok {
			c.logger.Printf("group %d: probe to user %d dropped", gid, uid)
			other.awaited, g.awaiting = false, g.awaiting-1
		}
	}
}

// handleProbeReply is step 2b.
func (c *Coordinator) handleProbeReply(msg Message) {
	c.mu.Lock()
	defer c.mu.Unlock()
	g := c.groups[msg.Group]
	if g == nil || !g.probing {
		return
	}
	if mb := g.members[msg.User]; mb != nil {
		mb.loc = msg.Loc
		if mb.awaited {
			mb.awaited, g.awaiting = false, g.awaiting-1
		}
	}
	c.maybeReplanLocked(msg.Group, g)
}

// maybeReplanLocked replans once all probe replies arrived.
func (c *Coordinator) maybeReplanLocked(gid uint32, g *group) {
	if !g.probing || g.awaiting > 0 {
		return
	}
	g.probing = false
	c.replanLocked(gid, g)
}

// replanLocked hands the group's current locations to the backend (step
// 3) and distributes the plan if the backend returned one inline;
// otherwise the plan arrives through Deliver. Member order is by
// ascending user id so regions match deterministically.
func (c *Coordinator) replanLocked(gid uint32, g *group) {
	ids := g.memberIDs()
	c.users = c.users[:0]
	for _, uid := range ids {
		c.users = append(c.users, g.members[uid].loc)
	}
	if meeting, regions, _, ok := c.submit(gid, ids, c.users); ok && len(regions) == len(ids) {
		c.notifyLocked(gid, g, ids, meeting, regions)
	}
}

// memberIDs returns the group's user ids in ascending order.
func (g *group) memberIDs() []uint32 {
	if g.ids == nil {
		for uid := range g.members {
			g.ids = append(g.ids, uid)
		}
		slices.Sort(g.ids)
	}
	return g.ids
}

// notifyLocked sends one notification per member, regions aligned with
// ids. Encodings go through each member's cache, so a region unchanged
// since the last delivery is not re-encoded (the kept path encodes
// nothing at all). Members that negotiated deltas receive a compact
// TNotifyDelta carrying their region only if it changed since the
// server's last successful enqueue to them; everyone else — and any
// member whose previous frame was dropped — gets a full TNotify.
func (c *Coordinator) notifyLocked(gid uint32, g *group, ids []uint32, meeting geom.Point, regions []core.SafeRegion) {
	for i, uid := range ids {
		mb := g.members[uid]
		data, epoch := mb.encodedRegion(regions[i])
		if !mb.delta || mb.needFull {
			ok := mb.send(&c.frame, Message{
				Type: TNotify, Group: gid, User: uid,
				Meeting: meeting, Epoch: epoch, Region: data,
			})
			mb.recordSend(c, gid, ok, epoch, meeting)
			continue
		}
		msg := Message{Type: TNotifyDelta, Group: gid, User: uid, Epoch: epoch}
		if meeting != mb.meeting {
			msg.MeetingChanged = true
			msg.Meeting = meeting
		}
		if epoch != mb.epoch {
			msg.Region = data
		}
		mb.recordSend(c, gid, mb.send(&c.frame, msg), epoch, meeting)
	}
	g.lastMeeting = meeting
	g.havePlan = true
}

// recordSend updates the member's delivered-state tracking after a send
// attempt: success records what the client will hold; a drop forces the
// next delivery to be a full frame, since the server can no longer prove
// what the client holds.
func (m *member) recordSend(c *Coordinator, gid uint32, ok bool, epoch uint64, meeting geom.Point) {
	m.noteSend(c, gid, ok)
	if ok {
		m.needFull = false
		m.epoch = epoch
		m.meeting = meeting
		return
	}
	m.needFull = true
	c.logger.Printf("group %d: notify to user %d dropped", gid, m.user)
}

// encodedRegion returns the wire encoding of the member's region r and
// its epoch. A region equal to the cached one keeps the cached encoding
// and epoch; any other is encoded and stamped with the cached epoch plus
// one, so her epochs only grow, and change exactly when her region does.
// A circle or network region is encoded into the cached buffer (cut to
// size when it is more than half idle); a tile region gets a fresh one.
func (m *member) encodedRegion(r core.SafeRegion) ([]byte, uint64) {
	if m.enc.data == nil || !m.enc.region.Equal(r) {
		data := m.enc.data
		if data == nil || r.Kind == core.KindTiles {
			data = EncodeRegion(r)
		} else if data = appendRegion(data[:0], r); cap(data) > 2*len(data) {
			data = slices.Clone(data)
		}
		m.enc = encRegion{region: r, epoch: m.enc.epoch + 1, data: data}
	}
	return m.enc.data, m.enc.epoch
}

// handleNack is the client's repair request: it could not apply a delta
// frame (no retained region, or an epoch it cannot reconcile). Mark the
// member for full delivery and repair it immediately from her encoding
// cache — it always holds her region of the group's latest distributed
// plan.
func (c *Coordinator) handleNack(msg Message) {
	c.mu.Lock()
	defer c.mu.Unlock()
	g := c.groups[msg.Group]
	if g == nil {
		return
	}
	mb := g.members[msg.User]
	if mb == nil {
		return
	}
	mb.needFull = true
	e := mb.enc
	if !g.havePlan || e.data == nil {
		return // no plan distributed yet; registration will deliver one
	}
	ok := mb.send(&c.frame, Message{
		Type: TNotify, Group: msg.Group, User: msg.User,
		Meeting: g.lastMeeting, Epoch: e.epoch, Region: e.data,
	})
	mb.recordSend(c, msg.Group, ok, e.epoch, g.lastMeeting)
	if ok {
		c.stats.nackRepairs.Add(1)
		c.logger.Printf("group %d: user %d nacked; repaired with full notify", msg.Group, msg.User)
	}
}

// removeMember drops a disconnected member; an incomplete group stops
// replanning until it refills. When the last member leaves, the group
// dissolves — a future group under the same id is a different group.
func (c *Coordinator) removeMember(gid, uid uint32) {
	c.mu.Lock()
	var mb *member
	if g := c.groups[gid]; g != nil {
		if mb = g.members[uid]; mb != nil {
			delete(g.members, uid)
			g.ids = nil
			// A probe round in flight is abandoned, not closed: planning
			// the m−1 members left would plan a subgroup. The member's
			// re-registration completes the group and replans it whole.
			g.probing = false
			if len(g.members) == 0 {
				delete(c.groups, gid)
				if c.onEmpty != nil {
					// Under the lock: a re-registration of the same gid
					// cannot interleave with the backend teardown.
					c.onEmpty(gid)
				}
			}
		}
	}
	c.mu.Unlock()
	if mb != nil {
		mb.close()
	}
	c.logger.Printf("group %d: user %d left", gid, uid)
}

// NumGroups returns the live group count (for tests and monitoring).
func (c *Coordinator) NumGroups() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.groups)
}

// EncodeRegion is the one region codec (the public mpn.EncodeRegion
// delegates here): 25 bytes for a circle (tag byte + three
// float64s), the 'N'-tagged segment list over shared endpoints for network
// range regions, the tileenc codec for tile regions: a planned region in its
// lattice layout (~40 bytes for 30 tiles), any other tile set as a list of
// its corners; either decodes bit for bit.
func EncodeRegion(r core.SafeRegion) []byte {
	switch r.Kind {
	case core.KindCircle:
		return appendRegion(make([]byte, 0, 25), r)
	case core.KindNetRange:
		return appendRegion(nil, r)
	}
	return tileenc.Encode(r.Tiles)
}

// appendRegion appends a circle's or a network region's encoding to buf.
func appendRegion(buf []byte, r core.SafeRegion) []byte {
	if r.Kind == core.KindNetRange {
		return r.Net.AppendEncode(buf)
	}
	buf = append(buf, 'C')
	buf = appendF(buf, r.Circle.C.X)
	buf = appendF(buf, r.Circle.C.Y)
	return appendF(buf, r.Circle.R)
}

// DecodeRegion parses an EncodeRegion payload back into a SafeRegion.
func DecodeRegion(data []byte) (core.SafeRegion, error) {
	if len(data) == 25 && data[0] == 'C' {
		// A NaN or ±Inf centre or radius, or a negative radius, would
		// contain nothing or everything; x-x is 0 only for finite x.
		c, r := geom.Pt(readF(data, 1), readF(data, 9)), readF(data, 17)
		if c.X-c.X != 0 || c.Y-c.Y != 0 || r-r != 0 || r < 0 {
			return core.SafeRegion{}, errors.New("proto: corrupt circle region")
		}
		return core.CircleRegion(c, r), nil
	}
	if len(data) > 0 && data[0] == 'N' {
		nr, err := netmpn.DecodeRegion(data)
		if err != nil {
			return core.SafeRegion{}, err
		}
		return core.NetRegion(nr), nil
	}
	tiles, err := tileenc.Decode(data)
	if err != nil {
		return core.SafeRegion{}, err
	}
	return core.TileRegion(tiles...), nil
}
