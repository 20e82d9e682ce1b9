package proto

import (
	"errors"
	"io"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"mpn/internal/core"
	"mpn/internal/geom"
)

// DialFunc dials one connection attempt for a ReconnectClient.
type DialFunc func() (io.ReadWriteCloser, error)

// AddrDialFunc dials one named address for a multi-address
// ReconnectClient (see NewReconnectClientAddrs).
type AddrDialFunc func(addr string) (io.ReadWriteCloser, error)

// ErrDisconnected is returned by ReconnectClient.Report while no live
// connection exists (a reconnect is in progress). The caller's next
// escape report, after the session resumes, carries the fresh location —
// nothing needs to be queued.
var ErrDisconnected = errors.New("proto: not connected")

// Backoff configures ReconnectClient's retry schedule: the delay starts
// at Min, multiplies by Factor per consecutive failure up to Max, and
// each sleep is stretched by a random factor in [1, 1+Jitter] drawn from
// a private source seeded with Seed — deterministic for a given seed, so
// chaos schedules replay exactly.
type Backoff struct {
	Min    time.Duration
	Max    time.Duration
	Factor float64
	Jitter float64
	Seed   int64
}

// withDefaults resolves zero fields.
func (b Backoff) withDefaults() Backoff {
	if b.Min <= 0 {
		b.Min = 100 * time.Millisecond
	}
	if b.Max <= 0 {
		b.Max = 15 * time.Second
	}
	if b.Factor < 1 {
		b.Factor = 2
	}
	if b.Jitter < 0 {
		b.Jitter = 0
	}
	return b
}

// ReconnectClient wraps the client state machine with automatic
// reconnection: when the session dies — connection error, server
// restart, heartbeat timeout, a kick by the slow-client policy — it
// redials with exponential backoff plus jitter, re-registers, and
// resumes through the server's existing full-snapshot path (a fresh
// member always receives a full TNotify first, so the retained plan
// self-repairs; no session state needs to survive on the server). To
// callers, a restarted server is invisible beyond latency: Meeting,
// Region and NeedsUpdate keep answering from the last notified plan
// across the gap.
type ReconnectClient struct {
	dial      DialFunc
	group     uint32
	user      uint32
	groupSize uint32
	loc       LocFunc
	onNotify  NotifyFunc
	opts      []ClientOption
	backoff   Backoff
	rng       *rand.Rand

	// userPeers is the caller's WithPeerUpdate callback, extracted from
	// opts at construction so the client can interpose its own adoption
	// handler and still forward every advertisement.
	userPeers PeerUpdateFunc

	reconnects atomic.Uint64
	connected  atomic.Bool

	mu      sync.Mutex
	conn    io.Closer // live connection, for Stop to interrupt a blocked read
	cur     *Client   // live session, for Report forwarding
	stopped bool
	stop    chan struct{}
	done    chan struct{}

	// Address book for multi-address clients (nil addrDial on classic
	// single-dial clients): dial attempts walk addrs round-robin, and a
	// server-pushed TPeers advertisement with a fresh-enough epoch
	// replaces the list wholesale (see adoptPeers).
	amu       sync.Mutex
	addrDial  AddrDialFunc
	addrs     []string
	addrIdx   int
	adopted   bool // an adoption repositioned addrIdx since the last dial
	peerEpoch uint64

	// Retained plan, updated by every notification on any session.
	pmu     sync.RWMutex
	meeting geom.Point
	region  core.SafeRegion
	haveReg bool
}

// NewReconnectClient builds a reconnecting client. dial and loc must be
// non-nil; onNotify may be nil. opts are applied to every underlying
// Client (session default: delta notifications negotiated).
// Call Start to begin.
func NewReconnectClient(dial DialFunc, group, user, groupSize uint32, loc LocFunc, onNotify NotifyFunc, backoff Backoff, opts ...ClientOption) (*ReconnectClient, error) {
	if dial == nil {
		return nil, errors.New("proto: nil dial function")
	}
	if loc == nil {
		return nil, errors.New("proto: nil location supplier")
	}
	rc := newReconnectClient(group, user, groupSize, loc, onNotify, backoff, opts)
	rc.dial = dial
	return rc, nil
}

// NewReconnectClientAddrs builds a reconnecting client over a list of
// candidate server addresses — the zero-downtime failover entry point.
// Dial attempts walk the list round-robin: every attempt that ends (a
// failed dial, a refused registration, a dead session) advances to the
// next address, so a client pointed at a dead primary converges on the
// promoted follower within one rotation. Server-pushed TPeers
// advertisements replace the list wholesale (primary first) when their
// fencing epoch is not older than the last adopted one, so the address
// book follows the cluster through promotions without reconfiguration.
// addrs must be non-empty; everything else is as NewReconnectClient.
func NewReconnectClientAddrs(dial AddrDialFunc, addrs []string, group, user, groupSize uint32, loc LocFunc, onNotify NotifyFunc, backoff Backoff, opts ...ClientOption) (*ReconnectClient, error) {
	if dial == nil {
		return nil, errors.New("proto: nil dial function")
	}
	if len(addrs) == 0 {
		return nil, errors.New("proto: empty address list")
	}
	if loc == nil {
		return nil, errors.New("proto: nil location supplier")
	}
	rc := newReconnectClient(group, user, groupSize, loc, onNotify, backoff, opts)
	rc.addrDial = dial
	rc.addrs = append([]string(nil), addrs...)
	rc.dial = func() (io.ReadWriteCloser, error) { return dial(rc.currentAddr()) }
	return rc, nil
}

// newReconnectClient is the shared construction path: it captures the
// caller's peer callback so the session loop can interpose its own
// adoption handler in front of it.
func newReconnectClient(group, user, groupSize uint32, loc LocFunc, onNotify NotifyFunc, backoff Backoff, opts []ClientOption) *ReconnectClient {
	b := backoff.withDefaults()
	rc := &ReconnectClient{
		group: group, user: user, groupSize: groupSize,
		loc: loc, onNotify: onNotify, opts: opts, backoff: b,
		rng:  rand.New(rand.NewSource(b.Seed)),
		stop: make(chan struct{}), done: make(chan struct{}),
	}
	// Probe the options on a throwaway Client to learn the caller's
	// callback (options are plain field setters, so this is safe).
	var probe Client
	for _, o := range opts {
		o(&probe)
	}
	rc.userPeers = probe.onPeers
	return rc
}

// currentAddr returns the address the next dial attempt should use and
// clears the adoption marker: the attempt now "owns" this address, and
// rotate will advance past it if the attempt ends.
func (rc *ReconnectClient) currentAddr() string {
	rc.amu.Lock()
	defer rc.amu.Unlock()
	rc.adopted = false
	return rc.addrs[rc.addrIdx%len(rc.addrs)]
}

// rotate advances the address book to the next candidate after an ended
// attempt — unless an adoption already repositioned it (the adopted
// primary must be tried before rotating away from it).
func (rc *ReconnectClient) rotate() {
	rc.amu.Lock()
	defer rc.amu.Unlock()
	if rc.adopted || len(rc.addrs) == 0 {
		return
	}
	rc.addrIdx = (rc.addrIdx + 1) % len(rc.addrs)
}

// adoptPeers folds a server-pushed TPeers advertisement into the address
// book. Advertisements from older fencing epochs than the last adopted
// one are discarded — a delayed frame from a deposed primary must not
// point the client back at a dead node.
func (rc *ReconnectClient) adoptPeers(epoch uint64, peers []string) {
	if rc.addrDial != nil && len(peers) > 0 {
		rc.amu.Lock()
		if epoch >= rc.peerEpoch {
			rc.peerEpoch = epoch
			rc.addrs = append(rc.addrs[:0], peers...)
			rc.addrIdx = 0
			rc.adopted = true
		}
		rc.amu.Unlock()
	}
	if rc.userPeers != nil {
		rc.userPeers(epoch, peers)
	}
}

// Addrs returns a copy of the current address book (observability for
// tests and monitoring); nil on single-dial clients.
func (rc *ReconnectClient) Addrs() []string {
	rc.amu.Lock()
	defer rc.amu.Unlock()
	return append([]string(nil), rc.addrs...)
}

// PeerEpoch returns the fencing epoch of the last adopted peer
// advertisement (0 before any adoption).
func (rc *ReconnectClient) PeerEpoch() uint64 {
	rc.amu.Lock()
	defer rc.amu.Unlock()
	return rc.peerEpoch
}

// Start launches the session loop in its own goroutine. It runs until
// Stop.
func (rc *ReconnectClient) Start() {
	go func() {
		defer close(rc.done)
		rc.run()
	}()
}

// Stop ends the session loop: the live connection (if any) is closed and
// Start's goroutine is joined. Safe to call more than once.
func (rc *ReconnectClient) Stop() {
	rc.mu.Lock()
	already := rc.stopped
	rc.stopped = true
	conn := rc.conn
	if !already {
		close(rc.stop)
	}
	rc.mu.Unlock()
	if conn != nil {
		_ = conn.Close()
	}
	if !already {
		<-rc.done
	}
}

// Connected reports whether a registered session is currently live.
func (rc *ReconnectClient) Connected() bool { return rc.connected.Load() }

// Reconnects returns how many times the session died and the loop went
// back to dialing (the initial connection does not count).
func (rc *ReconnectClient) Reconnects() uint64 { return rc.reconnects.Load() }

// Report sends the user's current location on the live session;
// ErrDisconnected while reconnecting.
func (rc *ReconnectClient) Report() error {
	rc.mu.Lock()
	cl := rc.cur
	rc.mu.Unlock()
	if cl == nil || !rc.connected.Load() {
		return ErrDisconnected
	}
	return cl.Report()
}

// Meeting returns the last notified meeting point, surviving reconnects.
func (rc *ReconnectClient) Meeting() geom.Point {
	rc.pmu.RLock()
	defer rc.pmu.RUnlock()
	return rc.meeting
}

// Region returns the last notified safe region, surviving reconnects.
func (rc *ReconnectClient) Region() core.SafeRegion {
	rc.pmu.RLock()
	defer rc.pmu.RUnlock()
	return rc.region
}

// NeedsUpdate reports whether loc escapes the retained safe region
// (false before the first notification, like Client.NeedsUpdate).
func (rc *ReconnectClient) NeedsUpdate(loc geom.Point) bool {
	rc.pmu.RLock()
	defer rc.pmu.RUnlock()
	if !rc.haveReg {
		return false
	}
	return !rc.region.Contains(loc)
}

// retain records a notification into the cross-session plan and forwards
// it to the caller's callback.
func (rc *ReconnectClient) retain(meeting geom.Point, region core.SafeRegion) {
	rc.pmu.Lock()
	rc.meeting = meeting
	rc.region = region
	rc.haveReg = true
	rc.pmu.Unlock()
	if rc.onNotify != nil {
		rc.onNotify(meeting, region)
	}
}

// run is the session loop: dial, register, pump frames; on any session
// death, back off, rotate the address book (multi-address clients), and
// start over. The backoff resets after every successful registration, so
// an isolated restart costs one Min-scale delay while a hard-down server
// is approached at Max cadence — and with several candidate addresses,
// the whole ring is walked before the delay compounds much.
func (rc *ReconnectClient) run() {
	// Every session interposes the adoption handler; the caller's own
	// peer callback (captured at construction) is forwarded from inside
	// it.
	sessionOpts := append(append([]ClientOption(nil), rc.opts...), WithPeerUpdate(rc.adoptPeers))
	delay := rc.backoff.Min
	for attempt := 0; ; attempt++ {
		if rc.isStopped() {
			return
		}
		if attempt > 0 {
			rc.reconnects.Add(1)
			if !rc.sleep(delay) {
				return
			}
			delay = rc.nextDelay(delay)
		}
		conn, err := rc.dial()
		if err != nil {
			rc.rotate()
			continue
		}
		cl, err := NewClient(conn, rc.group, rc.user, rc.loc, rc.retain, sessionOpts...)
		if err != nil {
			_ = conn.Close()
			rc.rotate()
			continue
		}
		rc.mu.Lock()
		if rc.stopped {
			rc.mu.Unlock()
			_ = conn.Close()
			return
		}
		rc.conn = conn
		rc.cur = cl
		rc.mu.Unlock()
		if err := cl.Register(rc.groupSize); err == nil {
			rc.connected.Store(true)
			delay = rc.backoff.Min
			_ = cl.Run() // until the session dies (error) or closes (nil)
			rc.connected.Store(false)
		}
		rc.mu.Lock()
		rc.conn = nil
		rc.cur = nil
		rc.mu.Unlock()
		_ = conn.Close()
		rc.rotate()
	}
}

func (rc *ReconnectClient) isStopped() bool {
	select {
	case <-rc.stop:
		return true
	default:
		return false
	}
}

// sleep waits d or until Stop; it reports whether the loop should keep
// going.
func (rc *ReconnectClient) sleep(d time.Duration) bool {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-rc.stop:
		return false
	case <-t.C:
		return true
	}
}

// nextDelay advances the exponential schedule and applies jitter.
func (rc *ReconnectClient) nextDelay(d time.Duration) time.Duration {
	d = time.Duration(float64(d) * rc.backoff.Factor)
	if d > rc.backoff.Max {
		d = rc.backoff.Max
	}
	if rc.backoff.Jitter > 0 {
		d = time.Duration(float64(d) * (1 + rc.backoff.Jitter*rc.rng.Float64()))
	}
	return d
}
