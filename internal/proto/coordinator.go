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
// members in ascending user-id order. Normally the backend (the sharded
// group engine) enqueues and answers later through Coordinator.Deliver,
// echoing ids so the delivery can be checked against membership churn,
// and returns ok=false. When it has the plan in hand — a group's one-time
// registration, or every call of a backend that computes inline — it
// returns the plan with ok=true and the coordinator notifies the members
// inline, so the very first plan (the one clients cannot recover from
// losing, since they never escape a region they never received) does not
// depend on any lossy notification path. SubmitFunc is called with the
// coordinator lock held — which is what guarantees a group's snapshots
// reach the backend in report order — so a serving backend must only
// enqueue (or at most compute that one registration plan), never
// recompute steady-state reports inline.
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
// Outbound frames are encoded when they are queued, queued per member
// and written by a dedicated goroutine, so the coordinator never blocks
// on a slow (or synchronous, e.g. net.Pipe) transport while holding its
// lock — a deadlock hazard otherwise, since clients may be writing to the
// server at the same moment.
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
	// outbox was full (the member is repaired by a later full notify) or
	// because the frame could not be encoded (it exceeded MaxFrame).
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

// outboxSize bounds the per-member outbound queue, in frames; a frame
// that finds it full is dropped. It is sized from measured traffic, since
// the channel buffer (24 B a slot) is allocated at registration and is
// most of an idle member's heap. Recording len(out) after every enqueue,
// the high-water mark was 1 frame on all five bench/ workloads. The
// largest burst one critical section queues to one member is 2 frames (a
// registration's TNotify plus TPeers, or refuseWrite's TPeers plus
// TError). Over net.Pipe, whose writes wait for the reader, the
// closed-loop fleet of TestFleetTrafficFitsOutbox dropped frames in 50 of
// 50 runs at 1 slot and 35 of 50 at 2 (20 of 20 each under -race), and
// in none of 50 (20 under -race) at 16. The queue fills only while the
// writer is blocked on a full socket, and then the write deadline is the
// real bound: more slots only delay the drop → needFull → kick path the
// slow-client policy already takes.
const outboxSize = 16

// group is the server-side state of one user group.
type group struct {
	size    uint32
	members map[uint32]*member
	// probing is non-nil while a probe round is outstanding; it holds the
	// user ids whose replies are still missing.
	probing map[uint32]bool

	// lastMeeting/havePlan retain the last distributed plan's meeting
	// point so a NACK can be repaired from the member's cache alone.
	lastMeeting geom.Point
	havePlan    bool
}

// encRegion is a member's cached region: the last region encoded for
// her, its encoding and its epoch (data is nil when nothing is cached).
// Both are immutable once stored (frames built from data copy it).
type encRegion struct {
	region core.SafeRegion
	epoch  uint64
	data   []byte
}

type member struct {
	user uint32
	// out holds encoded frames, length prefix included, each written to
	// the connection with one Write call by the member's writer goroutine.
	out  chan []byte
	done chan struct{}

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
// send's result goes through it, so DroppedFrames counts every drop. Must
// be called with the coordinator lock held.
func (m *member) noteSend(c *Coordinator, gid uint32, ok bool) {
	if ok {
		m.drops = 0
		return
	}
	m.drops++
	c.stats.droppedFrames.Add(1)
	if limit := c.slowClientLimit(); limit > 0 && m.drops == limit && m.kick != nil {
		c.stats.slowKicks.Add(1)
		c.logger.Printf("group %d: user %d disconnected by slow-client policy (%d consecutive outbox drops)",
			gid, m.user, m.drops)
		m.kick()
	}
}

// newMember starts the writer goroutine for one connection: it writes
// each queued frame with one w.Write call, in queue order, until close.
func newMember(user uint32, w io.Writer, logger *log.Logger) *member {
	m := &member{user: user, out: make(chan []byte, outboxSize), done: make(chan struct{}), needFull: true}
	go func() {
		defer close(m.done)
		for frame := range m.out {
			if _, err := w.Write(frame); err != nil {
				logger.Printf("user %d: write failed: %v", user, err)
				// Drain remaining frames so senders never block.
				for range m.out {
				}
				return
			}
		}
	}()
	return m
}

// send encodes msg and enqueues the frame without blocking; it reports
// whether the member accepted it. A frame that cannot be encoded (it
// exceeds MaxFrame) is refused here, like one that finds the outbox full,
// so the caller counts it as a drop and the writer never sees it.
func (m *member) send(msg Message) bool {
	frame, err := msg.AppendFrame(make([]byte, 0, msg.frameCap()))
	if err != nil {
		return false
	}
	select {
	case m.out <- frame:
		return true
	default:
		return false
	}
}

// close stops the writer after the queue drains: it returns once every
// queued frame was written, or the writer gave up on a failed write.
func (m *member) close() {
	close(m.out)
	<-m.done
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
	current := memberIDs(g)
	if err != nil {
		c.logger.Printf("group %d: plan failed: %v", gid, err)
		for _, uid := range current {
			mb := g.members[uid]
			mb.noteSend(c, gid, mb.send(Message{Type: TError, Group: gid, Text: err.Error()}))
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
	for {
		msg, err := Read(conn)
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
				c.sendError(conn, "already registered")
				continue
			}
			if c.gate != nil {
				// Before registration no outbox exists, so the redirect
				// is written directly — nothing else owns the connection.
				if peers, epoch, gerr := c.gate(); gerr != nil {
					c.stats.writeRefusals.Add(1)
					_ = Write(conn, Message{Type: TPeers, Epoch: epoch, Peers: peers})
					_ = Write(conn, Message{Type: TError, Text: gerr.Error()})
					continue
				}
			}
			if err := c.register(msg, conn); err != nil {
				c.sendError(conn, err.Error())
				continue
			}
			gid, uid, registered = msg.Group, msg.User, true
			c.pushPeers(gid, uid)
		case TReport:
			if !registered {
				c.sendError(conn, "report before register")
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
				c.sendError(conn, "reply before register")
				continue
			}
			c.handleProbeReply(msg)
		case TPing:
			c.stats.heartbeats.Add(1)
			c.reply(conn, registered, gid, uid, Message{Type: TPong, Epoch: msg.Epoch})
		case TNack:
			if !registered {
				c.sendError(conn, "nack before register")
				continue
			}
			c.handleNack(msg)
		default:
			c.sendError(conn, fmt.Sprintf("unexpected %v from client", msg.Type))
		}
	}
}

// pushPeers enqueues the current peer advertisement to a freshly
// registered member, so failover-capable clients learn the standby
// addresses before they ever need them. The gate is consulted outside
// the coordinator lock (it may take replication locks of its own); the
// frame rides the member's outbox like any other delivery.
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
		mb.noteSend(c, gid, mb.send(Message{Type: TPeers, Epoch: epoch, Peers: peers}))
	}
}

// refuseWrite answers a gated-off report from a registered member: a
// peer redirect followed by an error, both routed through the member's
// outbox — the writer goroutine owns the connection, so a direct write
// here would race it. The error ends the client's session; a
// reconnecting client then dials the advertised primary.
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
		mb.noteSend(c, gid, mb.send(Message{Type: TPeers, Epoch: epoch, Peers: peers}))
	}
	mb.noteSend(c, gid, mb.send(Message{Type: TError, Group: gid, Text: gerr.Error()}))
}

// sendError writes directly: it is only used before the member has an
// outbox (or for protocol violations where blocking the offender is
// acceptable).
func (c *Coordinator) sendError(w io.Writer, text string) {
	c.stats.protocolErrors.Add(1)
	_ = Write(w, Message{Type: TError, Text: text})
}

// reply answers the connection's own peer: a heartbeat's TPong echoing
// the sequence number, or the TError that ends a session. A registered
// member's frame rides its outbox — the writer goroutine owns the
// connection, and a wedged outbox failing the heartbeat is exactly the
// liveness signal the peer wants. Before registration the read loop may
// write directly (nothing else owns the connection yet).
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
		mb.noteSend(c, gid, mb.send(msg))
	}
}

// register adds the member; when the group completes, the first plan is
// computed and distributed.
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
	if g.probing != nil {
		// A probe round is already in flight (e.g. two users escaped in
		// the same tick); the fresh location is recorded and the pending
		// round will cover it.
		delete(g.probing, msg.User)
		c.maybeReplanLocked(msg.Group, g)
		return
	}
	g.probing = map[uint32]bool{}
	for uid, other := range g.members {
		if uid == msg.User {
			continue
		}
		g.probing[uid] = true
		ok := other.send(Message{Type: TProbe, Group: msg.Group, User: uid})
		other.noteSend(c, msg.Group, ok)
		if !ok {
			c.logger.Printf("group %d: probe to user %d dropped (outbox full)", msg.Group, uid)
			delete(g.probing, uid)
		}
	}
	c.maybeReplanLocked(msg.Group, g)
}

// handleProbeReply is step 2b.
func (c *Coordinator) handleProbeReply(msg Message) {
	c.mu.Lock()
	defer c.mu.Unlock()
	g := c.groups[msg.Group]
	if g == nil || g.probing == nil {
		return
	}
	if mb := g.members[msg.User]; mb != nil {
		mb.loc = msg.Loc
	}
	delete(g.probing, msg.User)
	c.maybeReplanLocked(msg.Group, g)
}

// maybeReplanLocked replans once all probe replies arrived.
func (c *Coordinator) maybeReplanLocked(gid uint32, g *group) {
	if g.probing == nil || len(g.probing) > 0 {
		return
	}
	g.probing = nil
	c.replanLocked(gid, g)
}

// replanLocked hands the group's current locations to the backend (step
// 3) and distributes the plan if the backend returned one inline;
// otherwise the plan arrives through Deliver. Member order is by
// ascending user id so regions match deterministically.
func (c *Coordinator) replanLocked(gid uint32, g *group) {
	ids := memberIDs(g)
	users := make([]geom.Point, len(ids))
	for i, uid := range ids {
		users[i] = g.members[uid].loc
	}
	if meeting, regions, _, ok := c.submit(gid, ids, users); ok && len(regions) == len(ids) {
		c.notifyLocked(gid, g, ids, meeting, regions)
	}
}

// memberIDs returns a group's user ids in ascending order.
func memberIDs(g *group) []uint32 {
	ids := make([]uint32, 0, len(g.members))
	for uid := range g.members {
		ids = append(ids, uid)
	}
	slices.Sort(ids)
	return ids
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
			ok := mb.send(Message{
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
		mb.recordSend(c, gid, mb.send(msg), epoch, meeting)
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
	c.logger.Printf("group %d: notify to user %d dropped (outbox full)", gid, m.user)
}

// encodedRegion returns the wire encoding of the member's region r and
// its epoch. A region equal to the cached one keeps the cached encoding
// and epoch; any other is encoded and stamped with the cached epoch plus
// one, so her epochs only grow, and change exactly when her region does.
func (m *member) encodedRegion(r core.SafeRegion) ([]byte, uint64) {
	if m.enc.data == nil || !m.enc.region.Equal(r) {
		m.enc = encRegion{region: r, epoch: m.enc.epoch + 1, data: EncodeRegion(r)}
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
	ok := mb.send(Message{
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
			// A probe round in flight is abandoned, not closed: planning
			// the m−1 members left would plan a subgroup. The member's
			// re-registration completes the group and replans it whole.
			g.probing = nil
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
	if r.Kind == core.KindCircle {
		buf := make([]byte, 0, 25)
		buf = append(buf, 'C')
		buf = appendF(buf, r.Circle.C.X)
		buf = appendF(buf, r.Circle.C.Y)
		buf = appendF(buf, r.Circle.R)
		return buf
	}
	if r.Kind == core.KindNetRange {
		return r.Net.AppendEncode(nil)
	}
	return tileenc.Encode(r.Tiles)
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
