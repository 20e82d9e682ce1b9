package proto

import (
	"encoding/binary"
	"errors"
	"io"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"mpn/internal/core"
	"mpn/internal/faultinject"
	"mpn/internal/geom"
)

// LocFunc supplies the client's current location when the server probes.
type LocFunc func() geom.Point

// NotifyFunc receives each fresh meeting point and safe region.
type NotifyFunc func(meeting geom.Point, region core.SafeRegion)

// ClientOption customizes a Client.
type ClientOption func(*Client)

// WithoutDelta disables delta negotiation: the client registers without
// FlagDeltaCapable, so the server ships every notification as a full
// TNotify frame. The reassembled plan is identical either way; the
// differential fences compare a full client against a delta client to
// prove it.
func WithoutDelta() ClientOption { return func(c *Client) { c.delta = false } }

// PeerUpdateFunc receives each TPeers advertisement the server pushes:
// the fencing epoch that published the list and the cluster's
// client-facing addresses, primary first. The slice is the callback's to
// keep.
type PeerUpdateFunc func(epoch uint64, peers []string)

// WithPeerUpdate installs the peer-advertisement callback: whenever the
// server pushes a TPeers frame (after registration, or alongside a write
// refusal on a non-primary node), fn receives it. ReconnectClient wires
// this internally to steer its redial list through a failover.
func WithPeerUpdate(fn PeerUpdateFunc) ClientOption {
	return func(c *Client) { c.onPeers = fn }
}

// WithHeartbeat enables the client's liveness machinery: Run sends a
// TPing every interval, and — when the connection supports read
// deadlines — arms a read deadline of 2.5× the interval before every
// frame read. A healthy server answers each ping with a TPong, so the
// deadline keeps sliding; a silently dead peer (half-open TCP, wedged
// middlebox) fails the read within ~2.5 intervals and Run returns the
// timeout instead of blocking forever. Non-positive intervals disable
// the heartbeat (the default).
func WithHeartbeat(interval time.Duration) ClientOption {
	return func(c *Client) { c.heartbeat = interval }
}

// Client is the user-side state machine: it registers, answers probes
// with the location supplier, reports escapes, and surfaces notifications.
//
// By default the client negotiates the delta protocol (FlagDeltaCapable):
// the server then sends the client's region only when it changed, and
// the client reassembles the current plan from its retained region. A
// delta frame it cannot apply — no retained region yet, or an epoch that
// does not match its retained one — is answered with TNack, and the
// server repairs the client with a full TNotify; the plan exposed
// through Meeting/Region/NeedsUpdate is byte-identical to the full
// protocol's at every step.
type Client struct {
	conn      io.ReadWriter
	group     uint32
	user      uint32
	delta     bool
	heartbeat time.Duration

	pongs atomic.Uint64

	loc      LocFunc
	onNotify NotifyFunc
	onPeers  PeerUpdateFunc

	wmu sync.Mutex

	mu      sync.RWMutex
	meeting geom.Point
	region  core.SafeRegion
	haveReg bool
	epoch   uint64
}

// NewClient wires a client over conn. loc must be non-nil; onNotify may be
// nil. Delta notifications are negotiated by default; pass WithoutDelta
// to force the full-frame protocol.
func NewClient(conn io.ReadWriter, group, user uint32, loc LocFunc, onNotify NotifyFunc, opts ...ClientOption) (*Client, error) {
	if loc == nil {
		return nil, errors.New("proto: nil location supplier")
	}
	c := &Client{conn: conn, group: group, user: user, delta: true, loc: loc, onNotify: onNotify}
	for _, o := range opts {
		o(c)
	}
	return c, nil
}

func (c *Client) write(m Message) error {
	c.wmu.Lock()
	defer c.wmu.Unlock()
	return Write(c.conn, m)
}

// Register joins the group (groupSize = m).
func (c *Client) Register(groupSize uint32) error {
	var flags uint8
	if c.delta {
		flags |= FlagDeltaCapable
	}
	return c.write(Message{
		Type: TRegister, Group: c.group, User: c.user,
		GroupSize: groupSize, Flags: flags, Loc: c.loc(),
	})
}

// Report sends the user's current location to the server (step 1 — call
// when NeedsUpdate fires).
func (c *Client) Report() error {
	return c.write(Message{Type: TReport, Group: c.group, User: c.user, Loc: c.loc()})
}

// NeedsUpdate reports whether the location escapes the current safe
// region. Before the first notification it returns false (the client has
// nothing to compare against).
func (c *Client) NeedsUpdate(loc geom.Point) bool {
	c.mu.RLock()
	defer c.mu.RUnlock()
	if !c.haveReg {
		return false
	}
	return !c.region.Contains(loc)
}

// Meeting returns the last notified meeting point.
func (c *Client) Meeting() geom.Point {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.meeting
}

// Region returns the last notified safe region.
func (c *Client) Region() core.SafeRegion {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.region
}

// Epoch returns the epoch of the retained region (0 before the first
// notification) — observability for tests and monitoring.
func (c *Client) Epoch() uint64 {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.epoch
}

// Pongs returns how many heartbeat replies the client has received —
// observability for liveness tests and monitoring.
func (c *Client) Pongs() uint64 { return c.pongs.Load() }

// Run processes server frames until EOF or error. Run answers probes
// automatically; notifications — full or delta — update Meeting/Region
// and invoke the callback. With WithHeartbeat it also pings the server
// and arms read deadlines. It returns nil on clean EOF.
func (c *Client) Run() error {
	if c.heartbeat > 0 {
		stop := make(chan struct{})
		defer close(stop)
		go c.pinger(stop)
	}
	deadliner, _ := c.conn.(interface{ SetReadDeadline(time.Time) error })
	for {
		faultinject.Fire(faultinject.ClientRead)
		if c.heartbeat > 0 && deadliner != nil {
			_ = deadliner.SetReadDeadline(time.Now().Add(c.heartbeat * 5 / 2))
		}
		msg, err := Read(c.conn)
		if err != nil {
			if errors.Is(err, io.EOF) {
				return nil
			}
			return err
		}
		switch msg.Type {
		case TProbe:
			if err := c.write(Message{Type: TProbeReply, Group: c.group, User: c.user, Loc: c.loc()}); err != nil {
				return err
			}
		case TPong:
			c.pongs.Add(1)
		case TPeers:
			if c.onPeers != nil {
				c.onPeers(msg.Epoch, msg.Peers)
			}
		case TNotify:
			region, err := DecodeRegion(msg.Region)
			if err != nil {
				return err
			}
			c.mu.Lock()
			c.meeting = msg.Meeting
			c.region = region
			c.haveReg = true
			c.epoch = msg.Epoch
			c.mu.Unlock()
			if c.onNotify != nil {
				c.onNotify(msg.Meeting, region)
			}
		case TNotifyDelta:
			if err := c.applyDelta(msg); err != nil {
				return err
			}
		case TError:
			return errors.New("proto: server error: " + msg.Text)
		default:
			return errors.New("proto: unexpected " + msg.Type.String() + " from server")
		}
	}
}

// pinger sends a TPing every heartbeat interval until stop closes or a
// write fails (Run then notices through its own read error — either the
// read deadline or the broken connection).
func (c *Client) pinger(stop <-chan struct{}) {
	t := time.NewTicker(c.heartbeat)
	defer t.Stop()
	var seq uint64
	for {
		select {
		case <-stop:
			return
		case <-t.C:
			seq++
			if err := c.write(Message{Type: TPing, Epoch: seq}); err != nil {
				return
			}
		}
	}
}

// applyDelta folds a TNotifyDelta frame into the retained plan. A frame
// carrying a region replaces the retained one (regions are complete, so
// one frame repairs any gap); a frame without one confirms the retained
// region is still current at msg.Epoch — if the client's retained epoch
// disagrees, or there is no retained region, it answers TNack and waits
// for the server's full repair instead of exposing state it cannot
// verify.
func (c *Client) applyDelta(msg Message) error {
	c.mu.Lock()
	if msg.Region == nil && (!c.haveReg || c.epoch != msg.Epoch) {
		c.mu.Unlock()
		return c.write(Message{Type: TNack, Group: c.group, User: c.user, Epoch: msg.Epoch})
	}
	if msg.Region != nil {
		region, err := DecodeRegion(msg.Region)
		if err != nil {
			c.mu.Unlock()
			return err
		}
		c.region = region
		c.haveReg = true
		c.epoch = msg.Epoch
	}
	if msg.MeetingChanged {
		c.meeting = msg.Meeting
	}
	meeting, region := c.meeting, c.region
	c.mu.Unlock()
	if c.onNotify != nil {
		c.onNotify(meeting, region)
	}
	return nil
}

// appendF / readF are the shared float64 wire helpers.
func appendF(buf []byte, v float64) []byte {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
	return append(buf, b[:]...)
}

func readF(data []byte, off int) float64 {
	return math.Float64frombits(binary.LittleEndian.Uint64(data[off : off+8]))
}
