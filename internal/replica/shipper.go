package replica

import (
	"net"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"mpn/internal/durable"
	"mpn/internal/faultinject"
)

// ShipperConfig configures the primary-side WAL shipper.
type ShipperConfig struct {
	// Store is the durable store whose record stream is shipped.
	Store *durable.Store
	// Epoch returns the node's current fencing epoch.
	Epoch func() uint64
	// Advertise is this node's client-facing address, sent to followers
	// in the stream header so clients can be pointed back after a
	// failback.
	Advertise string
	// OnFenced is called (once per offending handshake) when a dialer
	// presents an epoch above ours: this node has been deposed.
	// advertise is the fencer's client-facing address ("" if it sent
	// none) — where the deposed node should point its clients.
	OnFenced func(epoch uint64, advertise string)
	// Buffer bounds each follower's tail subscription; a follower that
	// falls further behind is cut and must reconnect for a full reseed.
	// Default 1024.
	Buffer int
}

// writeTimeout bounds the handshake read and each frame write to a
// follower.
const writeTimeout = 5 * time.Second

// ShipperStats is a point-in-time read of shipping progress.
type ShipperStats struct {
	// Followers is the number of connected follower streams.
	Followers int
	// StreamPos is the primary's latest record position.
	StreamPos uint64
	// AckPos is the lowest position acked across followers (0 with no
	// followers or before the first ack): StreamPos-AckPos is the lag
	// bound in records.
	AckPos uint64
	// Shipped counts tail record frames written to followers.
	Shipped uint64
	// Seeds counts full-state seeds served (initial connects and
	// post-lag reseeds alike).
	Seeds uint64
	// Cuts counts follower streams cut for lag or write failure.
	Cuts uint64
	// FencedBy is the highest epoch a handshake deposed us with (0 if
	// never).
	FencedBy uint64
}

// Shipper serves the replication stream to followers: each accepted
// connection gets a consistent snapshot seed (durable.AppendStateFrames
// of the store mirror) followed by the live record tail, and acks its
// position back. One Shipper serves any number of followers, each on
// its own subscription.
type Shipper struct {
	cfg ShipperConfig

	mu        sync.Mutex
	ln        net.Listener
	followers map[*follower]struct{}
	closed    bool

	wg sync.WaitGroup

	shipped, seeds, cuts atomic.Uint64
	fencedBy             atomic.Uint64
}

// follower is one connected follower stream.
type follower struct {
	conn      net.Conn
	sub       *durable.StreamSub
	advertise string
	acked     atomic.Uint64
}

// NewShipper returns a shipper ready to Serve.
func NewShipper(cfg ShipperConfig) *Shipper {
	if cfg.Buffer <= 0 {
		cfg.Buffer = 1024
	}
	return &Shipper{cfg: cfg, followers: make(map[*follower]struct{})}
}

// Serve accepts follower connections on ln until Close. It returns when
// the listener dies; each connection is handled on its own goroutine.
func (sh *Shipper) Serve(ln net.Listener) {
	sh.mu.Lock()
	if sh.closed {
		sh.mu.Unlock()
		ln.Close()
		return
	}
	sh.ln = ln
	sh.mu.Unlock()
	for {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		sh.wg.Add(1)
		go func() {
			defer sh.wg.Done()
			sh.handleConn(conn)
		}()
	}
}

// Close stops accepting, cuts every follower, and waits for handler
// goroutines to exit.
func (sh *Shipper) Close() {
	sh.mu.Lock()
	if sh.closed {
		sh.mu.Unlock()
		return
	}
	sh.closed = true
	if sh.ln != nil {
		sh.ln.Close()
	}
	for f := range sh.followers {
		f.conn.Close()
		f.sub.Close()
	}
	sh.mu.Unlock()
	sh.wg.Wait()
}

// Stats returns a snapshot of shipping progress.
func (sh *Shipper) Stats() ShipperStats {
	st := ShipperStats{
		Shipped:  sh.shipped.Load(),
		Seeds:    sh.seeds.Load(),
		Cuts:     sh.cuts.Load(),
		FencedBy: sh.fencedBy.Load(),
	}
	if sh.cfg.Store != nil {
		st.StreamPos = sh.cfg.Store.StreamPos()
	}
	sh.mu.Lock()
	st.Followers = len(sh.followers)
	for f := range sh.followers {
		if a := f.acked.Load(); st.AckPos == 0 || a < st.AckPos {
			st.AckPos = a
		}
	}
	sh.mu.Unlock()
	return st
}

// FollowerAddrs returns the advertise addresses of connected followers,
// sorted — the peer list a primary pushes to clients.
func (sh *Shipper) FollowerAddrs() []string {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	var addrs []string
	for f := range sh.followers {
		if f.advertise != "" {
			addrs = append(addrs, f.advertise)
		}
	}
	sort.Strings(addrs)
	return addrs
}

// handleConn runs one follower stream: handshake (with the fencing
// check), seed, then tail until cut.
func (sh *Shipper) handleConn(conn net.Conn) {
	defer conn.Close()
	conn.SetReadDeadline(time.Now().Add(writeTimeout))
	rd := NewReader(conn)
	if err := rd.Magic(); err != nil {
		return
	}
	p, err := rd.Next()
	if err != nil {
		return
	}
	helloEpoch, advertise, err := parseHello(p)
	if err != nil {
		return
	}
	conn.SetReadDeadline(time.Time{})

	epoch := uint64(0)
	if sh.cfg.Epoch != nil {
		epoch = sh.cfg.Epoch()
	}
	if helloEpoch > epoch {
		// The dialer promoted past us: we are deposed. Report and
		// refuse the stream.
		sh.fencedBy.Store(helloEpoch)
		if sh.cfg.OnFenced != nil {
			sh.cfg.OnFenced(helloEpoch, advertise)
		}
		return
	}

	// Seed: a state clone consistent with a stream position, then the
	// live tail from that position.
	seed, pos, sub := sh.cfg.Store.StreamFrom(sh.cfg.Buffer)
	defer sub.Close()
	sh.seeds.Add(1)

	f := &follower{conn: conn, sub: sub, advertise: advertise}
	f.acked.Store(pos)
	sh.mu.Lock()
	if sh.closed {
		sh.mu.Unlock()
		return
	}
	sh.followers[f] = struct{}{}
	sh.mu.Unlock()
	defer func() {
		sh.mu.Lock()
		delete(sh.followers, f)
		sh.mu.Unlock()
	}()

	if _, err := conn.Write([]byte(streamMagic)); err != nil {
		return
	}
	if err := writeFrame(conn, appendHeader(nil, epoch, pos, sh.cfg.Advertise), writeTimeout); err != nil {
		return
	}
	// The seed frames are already CRC-framed by AppendStateFrames.
	conn.SetWriteDeadline(time.Now().Add(writeTimeout))
	if _, err := conn.Write(durable.AppendStateFrames(nil, seed)); err != nil {
		return
	}
	conn.SetWriteDeadline(time.Time{})
	if err := writeFrame(conn, appendSeedEnd(nil, pos), writeTimeout); err != nil {
		return
	}

	// Ack reader: drains follower acks until the connection dies, and
	// then closes the subscription so the tail loop below wakes up —
	// otherwise a silent follower death would park this goroutine on an
	// idle stream forever.
	ackDone := make(chan struct{})
	go func() {
		defer close(ackDone)
		defer sub.Close()
		for {
			p, err := rd.Next()
			if err != nil {
				return
			}
			if pos, err := parseAck(p); err == nil {
				f.acked.Store(pos)
			}
		}
	}()

	for rec := range sub.C {
		if eff := faultinject.FireEffect(faultinject.ReplShip); eff.Drop {
			sh.cuts.Add(1)
			conn.Close()
			<-ackDone
			return
		}
		if err := writeFrame(conn, rec.Payload, writeTimeout); err != nil {
			sh.cuts.Add(1)
			conn.Close()
			<-ackDone
			return
		}
		sh.shipped.Add(1)
	}
	// Subscription closed: store shut down, or this follower lagged
	// past its buffer. Either way the stream ends; a lagged follower
	// reconnects and reseeds.
	if sub.Lagged() {
		sh.cuts.Add(1)
	}
	conn.Close()
	<-ackDone
}
