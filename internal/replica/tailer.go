package replica

import (
	"errors"
	"fmt"
	"net"
	"sort"
	"sync/atomic"
	"time"

	"mpn/internal/durable"
	"mpn/internal/faultinject"
)

// errStreamCut is the non-fatal "reconnect and reseed" condition: the
// connection died or a ReplTail fault cut it.
var errStreamCut = errors.New("replica: stream cut")

// TailerConfig configures the follower-side stream tailer.
type TailerConfig struct {
	// PrimaryAddr is the primary's replication listen address.
	PrimaryAddr string
	// Advertise is this standby's client-facing address, presented in
	// the handshake so the primary can include it in peer frames.
	Advertise string
	// Epoch returns this node's current fencing epoch for the
	// handshake.
	Epoch func() uint64
	// OnRecord applies one replicated record to the serving engine. It
	// runs on the tailer goroutine, strictly in stream order; an error
	// is fatal (the standby can no longer converge by replay), and Err
	// then wraps both it and ErrDiverged.
	OnRecord func(durable.Record) error
	// Initial is the follower's starting mirror (its own recovered
	// state); nil starts empty. Seeds are diffed against the mirror so
	// only the delta reaches OnRecord.
	Initial *durable.State
	// Dial overrides the TCP dialer (tests inject pipes/faults); timeout
	// is always dialTimeout.
	Dial func(addr string, timeout time.Duration) (net.Conn, error)
	// RetryBackoff is the pause between reconnect attempts. Default
	// 100ms.
	RetryBackoff time.Duration
	// AckInterval is how often the tailer acks its applied position.
	// Default 50ms.
	AckInterval time.Duration
}

// dialTimeout bounds each dial, the handshake write and each ack write.
const dialTimeout = 2 * time.Second

// TailerStats is a point-in-time read of catch-up progress.
type TailerStats struct {
	// Connected reports a live stream.
	Connected bool
	// Pos is the last stream position applied.
	Pos uint64
	// Seeds counts full-state seeds consumed (connects and reseeds).
	Seeds uint64
	// Records counts tail records applied.
	Records uint64
	// PrimaryEpoch is the fencing epoch the primary presented.
	PrimaryEpoch uint64
}

// Tailer follows a primary's replication stream: it dials, presents its
// epoch, consumes the snapshot seed, diffs it against its mirror so the
// engine converges without a restart, then applies the live tail and
// acks positions. It reconnects (with a full reseed) whenever the
// stream drops, until Stop — or until a fatal divergence, after which
// Err reports why.
type Tailer struct {
	cfg TailerConfig

	quit chan struct{}
	done chan struct{}

	mirror *durable.State // run-goroutine owned

	connected        atomic.Bool
	pos              atomic.Uint64
	seeds, records   atomic.Uint64
	primaryEpoch     atomic.Uint64
	primaryAdvertise atomic.Value // string
	fatal            atomic.Value // error
}

// StartTailer launches the tail loop.
func StartTailer(cfg TailerConfig) *Tailer {
	if cfg.RetryBackoff <= 0 {
		cfg.RetryBackoff = 100 * time.Millisecond
	}
	if cfg.AckInterval <= 0 {
		cfg.AckInterval = 50 * time.Millisecond
	}
	if cfg.Dial == nil {
		cfg.Dial = func(addr string, timeout time.Duration) (net.Conn, error) {
			return net.DialTimeout("tcp", addr, timeout)
		}
	}
	t := &Tailer{
		cfg:    cfg,
		quit:   make(chan struct{}),
		done:   make(chan struct{}),
		mirror: cfg.Initial,
	}
	if t.mirror == nil {
		t.mirror = durable.NewState()
	}
	t.primaryAdvertise.Store("")
	go t.run()
	return t
}

// Stop ends the tail loop and waits for it to exit. Idempotent.
func (t *Tailer) Stop() {
	select {
	case <-t.quit:
	default:
		close(t.quit)
	}
	<-t.done
}

// Stats returns a snapshot of catch-up progress.
func (t *Tailer) Stats() TailerStats {
	return TailerStats{
		Connected:    t.connected.Load(),
		Pos:          t.pos.Load(),
		Seeds:        t.seeds.Load(),
		Records:      t.records.Load(),
		PrimaryEpoch: t.primaryEpoch.Load(),
	}
}

// PrimaryEpoch returns the fencing epoch the primary last presented.
func (t *Tailer) PrimaryEpoch() uint64 { return t.primaryEpoch.Load() }

// PrimaryAdvertise returns the primary's client-facing address from the
// stream header.
func (t *Tailer) PrimaryAdvertise() string { return t.primaryAdvertise.Load().(string) }

// Err returns the fatal error that stopped the tailer, nil while it is
// still trying.
func (t *Tailer) Err() error {
	if e := t.fatal.Load(); e != nil {
		return e.(error)
	}
	return nil
}

// run is the reconnect loop.
func (t *Tailer) run() {
	defer close(t.done)
	for {
		select {
		case <-t.quit:
			return
		default:
		}
		conn, err := t.cfg.Dial(t.cfg.PrimaryAddr, dialTimeout)
		if err == nil {
			err = t.stream(conn)
			t.connected.Store(false)
		}
		if errors.Is(err, ErrDiverged) || errors.Is(err, ErrFenced) {
			t.fatal.Store(err)
			return
		}
		select {
		case <-t.quit:
			return
		case <-time.After(t.cfg.RetryBackoff):
		}
	}
}

// stream runs one connection: handshake, seed, tail. Non-fatal returns
// trigger a reconnect; ErrDiverged/ErrFenced stop the tailer.
func (t *Tailer) stream(conn net.Conn) error {
	frames := make(chan []byte, 64)
	errc := make(chan error, 1)
	readerDone := func() {
		conn.Close()
		for {
			select {
			case <-frames:
			case <-errc:
				return
			}
		}
	}
	defer readerDone()

	helloEpoch := uint64(0)
	if t.cfg.Epoch != nil {
		helloEpoch = t.cfg.Epoch()
	}
	if eff := faultinject.FireEffect(faultinject.ReplHello); eff.Drop {
		// Model a rejoining follower that forgot its fence.
		helloEpoch = 0
	}
	conn.SetWriteDeadline(time.Now().Add(dialTimeout))
	if _, err := conn.Write([]byte(streamMagic)); err != nil {
		return err
	}
	if err := writeFrame(conn, appendHello(nil, helloEpoch, t.cfg.Advertise), dialTimeout); err != nil {
		return err
	}
	conn.SetWriteDeadline(time.Time{})

	// The reader goroutine owns every read on the connection: the
	// primary's magic first, then frames, pushed through a channel so
	// the apply loop can multiplex with acks and shutdown without read
	// deadlines tearing frames mid-parse.
	rd := NewReader(conn)
	go func() {
		if err := rd.Magic(); err != nil {
			errc <- err
			return
		}
		for {
			p, err := rd.Next()
			if err != nil {
				errc <- err
				return
			}
			select {
			case frames <- p:
			case <-t.quit:
				errc <- errStreamCut
				return
			}
		}
	}()

	next := func() ([]byte, error) {
		select {
		case <-t.quit:
			return nil, errStreamCut
		case err := <-errc:
			errc <- err // keep readerDone's drain loop terminating
			return nil, err
		case p := <-frames:
			return p, nil
		}
	}

	p, err := next()
	if err != nil {
		return err
	}
	headerEpoch, seedPos, primaryAdv, err := parseHeader(p)
	if err != nil {
		return err
	}
	if headerEpoch < helloEpoch {
		// A primary below our fence is deposed; refuse to follow it.
		return fmt.Errorf("%w: primary epoch %d below ours %d", ErrFenced, headerEpoch, helloEpoch)
	}
	t.primaryEpoch.Store(headerEpoch)
	t.primaryAdvertise.Store(primaryAdv)

	// Seed: rebuild the primary's state, then converge the engine by
	// diffing it against our mirror.
	seed := durable.NewState()
	for {
		p, err := next()
		if err != nil {
			return err
		}
		if len(p) > 0 && p[0] == ctrlSeedEnd {
			if _, err := parseSeedEnd(p); err != nil {
				return err
			}
			break
		}
		if err := seed.Apply(p); err != nil {
			return err
		}
	}
	recs, err := diffStates(t.mirror, seed)
	if err != nil {
		return err
	}
	for _, rec := range recs {
		if err := t.cfg.OnRecord(rec); err != nil {
			return fmt.Errorf("%w: applying seed diff: %w", ErrDiverged, err)
		}
	}
	t.mirror = seed
	t.pos.Store(seedPos)
	t.seeds.Add(1)
	t.connected.Store(true)
	writeFrame(conn, appendAck(nil, seedPos), dialTimeout)
	lastAck := seedPos

	ticker := time.NewTicker(t.cfg.AckInterval)
	defer ticker.Stop()
	for {
		select {
		case <-t.quit:
			if cur := t.pos.Load(); cur != lastAck {
				writeFrame(conn, appendAck(nil, cur), dialTimeout)
			}
			return errStreamCut
		case err := <-errc:
			errc <- err
			return err
		case p := <-frames:
			if eff := faultinject.FireEffect(faultinject.ReplTail); eff.Drop {
				return errStreamCut
			}
			rec, err := durable.DecodeRecord(p)
			if err != nil {
				return err
			}
			if err := t.mirror.ApplyRecord(rec); err != nil {
				return err
			}
			if err := t.cfg.OnRecord(rec); err != nil {
				return fmt.Errorf("%w: applying tail record: %w", ErrDiverged, err)
			}
			t.pos.Add(1)
			t.records.Add(1)
		case <-ticker.C:
			if cur := t.pos.Load(); cur != lastAck {
				if err := writeFrame(conn, appendAck(nil, cur), dialTimeout); err != nil {
					return err
				}
				lastAck = cur
			}
		}
	}
}

// diffStates computes the records that take a follower from old to new.
// new must be a history-extension of old — same POI base, old's inserts
// a prefix of new's, old's deletes a subset, epoch not regressed —
// otherwise the follower has diverged and replay cannot converge
// (ErrDiverged). The emitted order is: epoch, POI batch, group
// upserts (sorted), unregisters (sorted).
func diffStates(old, new *durable.State) ([]durable.Record, error) {
	var recs []durable.Record
	if new.Epoch < old.Epoch {
		return nil, fmt.Errorf("%w: epoch %d below mirror's %d", ErrDiverged, new.Epoch, old.Epoch)
	}
	if new.Epoch > old.Epoch {
		recs = append(recs, durable.Record{Type: durable.RecEpoch, Epoch: new.Epoch})
	}

	oldBase, newBase := old.POIBase, new.POIBase
	if newBase < 0 {
		newBase = 0
	}
	if oldBase < 0 {
		if len(old.POIInserts) > 0 || len(old.POIDeleted) > 0 {
			return nil, fmt.Errorf("%w: mirror has POI churn but no base", ErrDiverged)
		}
		oldBase = newBase
	}
	if oldBase != newBase {
		return nil, fmt.Errorf("%w: POI base %d vs mirror's %d", ErrDiverged, newBase, oldBase)
	}
	if len(new.POIInserts) < len(old.POIInserts) {
		return nil, fmt.Errorf("%w: POI inserts shrank (%d -> %d)", ErrDiverged, len(old.POIInserts), len(new.POIInserts))
	}
	for i, p := range old.POIInserts {
		if new.POIInserts[i] != p {
			return nil, fmt.Errorf("%w: POI insert %d rewritten", ErrDiverged, i)
		}
	}
	oldDel := make(map[int]bool, len(old.POIDeleted))
	for _, id := range old.POIDeleted {
		oldDel[id] = true
	}
	newDel := make(map[int]bool, len(new.POIDeleted))
	var freshDels []int
	for _, id := range new.POIDeleted {
		newDel[id] = true
		if !oldDel[id] {
			freshDels = append(freshDels, id)
		}
	}
	for _, id := range old.POIDeleted {
		if !newDel[id] {
			return nil, fmt.Errorf("%w: POI delete %d undone", ErrDiverged, id)
		}
	}
	freshIns := new.POIInserts[len(old.POIInserts):]
	if len(freshIns) > 0 || len(freshDels) > 0 {
		sort.Ints(freshDels)
		recs = append(recs, durable.Record{
			Type:    durable.RecPOIs,
			POIBase: oldBase + len(old.POIInserts),
			Inserts: freshIns,
			Deletes: freshDels,
		})
	}

	var upserts, gones []uint32
	for gid, g := range new.Groups {
		og, ok := old.Groups[gid]
		if !ok || !groupEqual(og, g) {
			upserts = append(upserts, gid)
		}
	}
	for gid := range old.Groups {
		if _, ok := new.Groups[gid]; !ok {
			gones = append(gones, gid)
		}
	}
	sort.Slice(upserts, func(i, j int) bool { return upserts[i] < upserts[j] })
	sort.Slice(gones, func(i, j int) bool { return gones[i] < gones[j] })
	for _, gid := range upserts {
		g := new.Groups[gid]
		recs = append(recs, durable.Record{Type: durable.RecGroup, GID: gid, IDs: g.IDs, Locs: g.Locs})
	}
	for _, gid := range gones {
		recs = append(recs, durable.Record{Type: durable.RecUnreg, GID: gid})
	}
	return recs, nil
}

// groupEqual compares two group states by value.
func groupEqual(a, b durable.GroupState) bool {
	if len(a.IDs) != len(b.IDs) || len(a.Locs) != len(b.Locs) {
		return false
	}
	for i := range a.IDs {
		if a.IDs[i] != b.IDs[i] {
			return false
		}
	}
	for i := range a.Locs {
		if a.Locs[i] != b.Locs[i] {
			return false
		}
	}
	return true
}
