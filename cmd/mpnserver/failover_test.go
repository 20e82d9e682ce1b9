package main

// Failover end-to-end suite: two real servers — a replicating primary
// and a hot standby tailing its WAL stream — driven over real TCP with
// reconnecting multi-address clients. The schedules cover the whole
// failover story: primary crash with automatic standby promotion and
// client failover (fenced differentially against a fault-free oracle,
// like the chaos suite), deliberate promotion with the old primary
// still alive (fencing epoch, write refusal, client redirect), and a
// follower catch-up differential that byte-compares the two nodes'
// canonical durable states after interleaved group and POI churn.
//
// Seeds come from CHAOS_SEEDS like the chaos suite, so CI runs the
// same matrix.

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"log"
	"math/rand"
	"net"
	"runtime"
	"testing"
	"time"

	"mpn/internal/core"
	"mpn/internal/durable"
	"mpn/internal/geom"
	"mpn/internal/proto"
	"mpn/internal/replica"
)

// waitCond polls cond until it holds or the deadline passes.
func waitCond(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(15 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// failoverNode is one server of a replicated pair, listening for
// clients on a pre-bound loopback port so the config can advertise the
// real address before the server boots.
type failoverNode struct {
	t    *testing.T
	srv  *server
	ln   *trackingListener
	addr string // client-facing address (also the advertise)
}

func startFailoverNode(t *testing.T, cfg serverConfig) *failoverNode {
	t.Helper()
	raw, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	cfg.advertise = raw.Addr().String()
	srv, err := newServer(cfg)
	if err != nil {
		raw.Close()
		t.Fatal(err)
	}
	ln := &trackingListener{Listener: raw}
	go func() { _ = srv.serve(ln) }()
	return &failoverNode{t: t, srv: srv, ln: ln, addr: raw.Addr().String()}
}

// crash tears the node down like a dead process: WAL wedged at its
// last fsynced byte, then listener and connections severed.
func (n *failoverNode) crash() {
	n.srv.crash()
	n.ln.Close()
	n.ln.killConns()
}

// kill is the clean shutdown.
func (n *failoverNode) kill() {
	n.ln.Close()
	n.ln.killConns()
	n.srv.close()
}

// failoverConfig is the shared base config: durable, fast fsync, fast
// replication retry/ack so failover settles in test time.
func failoverConfig(t *testing.T, pois []geom.Point) serverConfig {
	t.Helper()
	return serverConfig{
		pois: pois, method: "tiled", agg: "max",
		alpha: 5, buffer: 20, shards: 2, workers: 1,
		readTimeout: 2 * time.Second, writeTimeout: 2 * time.Second,
		stateDir: t.TempDir(), fsync: "interval", fsyncEvery: 2 * time.Millisecond,
		replRetry: 10 * time.Millisecond, replAck: 5 * time.Millisecond,
		logger: log.New(io.Discard, "", 0),
	}
}

// startReplicatedPair boots a primary shipping its WAL and a standby
// tailing it, and waits for the stream to be live.
func startReplicatedPair(t *testing.T, pois []geom.Point, promoteAfter time.Duration) (primary, standby *failoverNode) {
	t.Helper()
	pcfg := failoverConfig(t, pois)
	pcfg.replicateTo = "127.0.0.1:0"
	primary = startFailoverNode(t, pcfg)

	scfg := failoverConfig(t, pois)
	scfg.standbyOf = primary.srv.replAddr()
	scfg.promoteAfter = promoteAfter
	standby = startFailoverNode(t, scfg)

	waitCond(t, "standby connected to primary", func() bool {
		return standby.srv.tail.Stats().Connected
	})
	return primary, standby
}

func failoverPOIs() []geom.Point {
	rng := rand.New(rand.NewSource(9))
	pois := make([]geom.Point, 500)
	for i := range pois {
		pois[i] = geom.Pt(rng.Float64(), rng.Float64())
	}
	return pois
}

// newFailoverUser is a chaosUser dialing through the multi-address
// reconnect client: it knows both nodes up front and additionally
// adopts every server-pushed peer list.
func newFailoverUser(t *testing.T, addrs []string, seed int64, id uint32, start geom.Point, groupSize uint32) *chaosUser {
	t.Helper()
	u := &chaosUser{id: id, pt: start}
	dial := func(addr string) (io.ReadWriteCloser, error) {
		return net.Dial("tcp", addr)
	}
	rc, err := proto.NewReconnectClientAddrs(dial, addrs, 1, id, groupSize, u.loc, nil,
		proto.Backoff{Min: 10 * time.Millisecond, Max: 250 * time.Millisecond, Factor: 2, Jitter: 0.2, Seed: seed*10 + int64(id)},
		proto.WithHeartbeat(50*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	u.rc = rc
	rc.Start()
	return u
}

// TestFailoverKillPrimary is the kill-primary-failover schedule: churn
// against the primary, crash it mid-churn, let the standby auto-promote,
// and fence every surviving client against the fault-free oracle — the
// same differential bar the chaos suite holds single-server recovery to.
func TestFailoverKillPrimary(t *testing.T) {
	pois := failoverPOIs()
	starts := []geom.Point{geom.Pt(0.30, 0.30), geom.Pt(0.35, 0.32), geom.Pt(0.31, 0.36)}
	finals := []geom.Point{geom.Pt(0.30, 0.30), geom.Pt(0.60, 0.35), geom.Pt(0.40, 0.65)}
	want := chaosExpected(t, pois, finals)
	for _, seed := range chaosSeeds(t) {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			runFailoverKillPrimary(t, seed, pois, starts, finals, want)
		})
	}
}

func runFailoverKillPrimary(t *testing.T, seed int64, pois, starts, finals []geom.Point, want chaosExpect) {
	baseGoroutines := runtime.NumGoroutine()
	primary, standby := startReplicatedPair(t, pois, 300*time.Millisecond)
	defer standby.kill()
	primaryDead := false
	defer func() {
		if !primaryDead {
			primary.kill()
		}
	}()

	addrs := []string{primary.addr, standby.addr}
	users := make([]*chaosUser, len(starts))
	for i, p := range starts {
		users[i] = newFailoverUser(t, addrs, seed, uint32(i), p, uint32(len(starts)))
	}
	defer func() {
		for _, u := range users {
			u.rc.Stop()
		}
	}()

	// Churn against the primary; the standby replays the WAL stream
	// live. Mid-churn the primary dies like a crashed process.
	const rounds = 18
	for r := 0; r < rounds; r++ {
		if r == rounds/2 {
			primary.crash()
			primaryDead = true
		}
		u := users[r%len(users)]
		u.setLoc(scriptLoc(r))
		u.report()
		time.Sleep(20 * time.Millisecond)
	}

	// Fence: everyone at their final location; the promoted standby
	// must serve the exact fault-free plan to every failed-over client.
	for i, u := range users {
		u.setLoc(finals[i])
	}
	deadline := time.Now().Add(45 * time.Second)
	for {
		users[0].report()
		time.Sleep(150 * time.Millisecond)
		if chaosConverged(users, want) {
			break
		}
		if time.Now().After(deadline) {
			st := standby.srv.snapshot()
			for i, u := range users {
				t.Logf("user %d: meeting=%v want=%v region-match=%v reconnects=%d connected=%v addrs=%v",
					i, u.rc.Meeting(), want.meeting,
					bytes.Equal(proto.EncodeRegion(u.rc.Region()), want.regions[i]),
					u.rc.Reconnects(), u.rc.Connected(), u.rc.Addrs())
			}
			t.Fatalf("failover fence never converged (standby role=%s epoch=%d tail=%+v)",
				st.Role, st.Epoch, st.Tail)
		}
	}

	// The standby must have promoted itself past the primary's epoch.
	st := standby.srv.snapshot()
	if st.Role != "primary" {
		t.Fatalf("standby role after failover: %s", st.Role)
	}
	if st.Epoch < 2 {
		t.Fatalf("promoted epoch %d, want >= 2", st.Epoch)
	}

	// Full teardown returns the goroutine count to its baseline: no
	// leaked tailer, shipper, promotion watcher, or client loops.
	for _, u := range users {
		u.rc.Stop()
	}
	standby.kill()
	leakDeadline := time.Now().Add(10 * time.Second)
	for runtime.NumGoroutine() > baseGoroutines+4 {
		if time.Now().After(leakDeadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("goroutine leak: %d > baseline %d\n%s",
				runtime.NumGoroutine(), baseGoroutines, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(50 * time.Millisecond)
	}
}

// TestFailoverFencing promotes the standby while the primary is still
// alive: the fencing handshake must depose the primary — byte-identical
// epochs on both sides — after which the deposed node refuses every
// write with a redirect at its successor, and a client that only knows
// the old primary still converges on the new one.
func TestFailoverFencing(t *testing.T) {
	pois := failoverPOIs()
	finals := []geom.Point{geom.Pt(0.30, 0.30), geom.Pt(0.60, 0.35), geom.Pt(0.40, 0.65)}
	want := chaosExpected(t, pois, finals)

	primary, standby := startReplicatedPair(t, pois, 0) // manual promotion only
	defer standby.kill()
	defer primary.kill()

	users := make([]*chaosUser, len(finals))
	for i := range finals {
		// These clients know only the old primary; every address they
		// learn afterwards arrives through pushed peer frames.
		users[i] = newFailoverUser(t, []string{primary.addr}, 7, uint32(i), finals[i], uint32(len(finals)))
	}
	defer func() {
		for _, u := range users {
			u.rc.Stop()
		}
	}()
	waitCond(t, "group registered on primary", func() bool {
		for _, u := range users {
			if len(u.rc.Region().Tiles) == 0 {
				return false
			}
		}
		return true
	})
	// Let the replicated registrations reach the standby before the
	// promotion cuts the stream.
	waitCond(t, "standby caught up", func() bool {
		st := primary.srv.ship.Stats()
		return st.StreamPos > 0 && st.AckPos == st.StreamPos
	})

	if !standby.srv.promote() {
		t.Fatal("promote refused")
	}
	if standby.srv.promote() {
		t.Fatal("second promote should be a no-op")
	}
	newEpoch := standby.srv.epoch.Load()
	if newEpoch < 2 {
		t.Fatalf("promoted epoch %d, want >= 2", newEpoch)
	}

	// The promotion fences the old primary over the replication port:
	// the deposed side must hold the promoted side's exact epoch and
	// learn its client-facing address.
	waitCond(t, "old primary fenced", func() bool {
		return primary.srv.role.Get() == replica.RoleFenced
	})
	if got := primary.srv.fencedEpoch.Load(); got != newEpoch {
		t.Fatalf("fenced epoch %d, promoted epoch %d — must be byte-identical", got, newEpoch)
	}
	if got, _ := primary.srv.fencedPeer.Load().(string); got != standby.addr {
		t.Fatalf("fenced peer %q, want %q", got, standby.addr)
	}

	// Every client knew only the old primary; refused writes carry the
	// successor's address, so they all converge on the promoted node.
	deadline := time.Now().Add(30 * time.Second)
	for {
		users[0].report()
		time.Sleep(100 * time.Millisecond)
		if chaosConverged(users, want) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("clients never failed over to the promoted standby (primary refusals=%d)",
				primary.srv.snapshot().Coord.WriteRefusals)
		}
	}
	if got := primary.srv.snapshot().Coord.WriteRefusals; got == 0 {
		t.Fatal("deposed primary never refused a write")
	}
	if st := standby.srv.snapshot(); st.Role != "primary" {
		t.Fatalf("standby role: %s", st.Role)
	}

	// A fresh client that has never heard of the standby: the deposed
	// primary's refusal must redirect it to the successor.
	late := newFailoverUser(t, []string{primary.addr}, 11, 50, geom.Pt(0.5, 0.5), 1)
	defer late.rc.Stop()
	// Fresh single-user group (gid travels via the chaosUser's rc,
	// which is pinned to group 1) — use the region converging instead:
	// group 1 is full, so this user joins as a 4th member of a 3-group
	// and must be rejected by size; instead just assert the peer list
	// was adopted from the refusal.
	waitCond(t, "late client adopts the successor", func() bool {
		for _, a := range late.rc.Addrs() {
			if a == standby.addr {
				return true
			}
		}
		return false
	})
}

// TestFollowerCatchUpDifferential: interleaved group churn and POI
// mutations against the primary; after the stream quiesces the two
// nodes' canonical durable states must be byte-identical — live
// (stream position acked through) and again after a clean close and
// recovery of both state directories.
func TestFollowerCatchUpDifferential(t *testing.T) {
	pois := failoverPOIs()
	primary, standby := startReplicatedPair(t, pois, 0)
	pDir, sDir := primary.srv.stateDir, standby.srv.stateDir
	standbyDead, primaryDead := false, false
	defer func() {
		if !standbyDead {
			standby.kill()
		}
		if !primaryDead {
			primary.kill()
		}
	}()

	users := make([]*chaosUser, 3)
	for i := range users {
		users[i] = newFailoverUser(t, []string{primary.addr}, 17, uint32(i), scriptLoc(i), 3)
	}
	waitCond(t, "group registered", func() bool {
		for _, u := range users {
			if len(u.rc.Region().Tiles) == 0 {
				return false
			}
		}
		return true
	})

	// Interleave movement reports with live POI churn: inserts extend
	// the external id space, deletes tombstone one synthetic and one
	// inserted POI. Every mutation is journaled, shipped, and replayed.
	for r := 0; r < 12; r++ {
		u := users[r%len(users)]
		u.setLoc(scriptLoc(100 + r))
		u.report()
		switch r {
		case 3:
			if _, err := primary.srv.planner.ApplyPOIs([]geom.Point{geom.Pt(0.11, 0.12), geom.Pt(0.13, 0.14)}, nil); err != nil {
				t.Fatal(err)
			}
		case 6:
			if _, err := primary.srv.planner.ApplyPOIs(nil, []int{3, len(pois)}); err != nil {
				t.Fatal(err)
			}
		case 9:
			if _, err := primary.srv.planner.ApplyPOIs([]geom.Point{geom.Pt(0.15, 0.16)}, nil); err != nil {
				t.Fatal(err)
			}
		}
		time.Sleep(10 * time.Millisecond)
	}
	// One final report round after the last POI batch so every group
	// record the standby replays postdates the final POI version.
	for _, u := range users {
		u.report()
	}

	// Quiesce: the standby has acked everything the primary shipped,
	// and the position is stable.
	var quiescedAt uint64
	waitCond(t, "stream quiesced", func() bool {
		st := primary.srv.ship.Stats()
		if st.Followers != 1 || st.AckPos != st.StreamPos || st.StreamPos == 0 {
			return false
		}
		if quiescedAt != st.StreamPos {
			quiescedAt = st.StreamPos
			return false // hold one extra poll to see it stable
		}
		return true
	})

	// Live differential: canonical serialized states byte-identical.
	pState, _, pSub := primary.srv.store.StreamFrom(1)
	pSub.Close()
	sState, _, sSub := standby.srv.store.StreamFrom(1)
	sSub.Close()
	if !bytes.Equal(durable.AppendStateFrames(nil, pState), durable.AppendStateFrames(nil, sState)) {
		t.Fatalf("live follower state diverged from primary:\nprimary:  %+v\nfollower: %+v", pState, sState)
	}

	// Disconnect everyone; the primary journals the group teardown and
	// ships it, so both nodes converge on the empty-group state.
	for _, u := range users {
		u.rc.Stop()
	}
	waitCond(t, "group torn down on primary", func() bool {
		primary.srv.mu.Lock()
		n := len(primary.srv.gidToEngine)
		primary.srv.mu.Unlock()
		return n == 0
	})
	// gidToEngine empties before the engine journals the teardown, so
	// first wait for the primary's log to hold it, then for the ack.
	waitCond(t, "teardown replicated", func() bool {
		pState, _, pSub := primary.srv.store.StreamFrom(1)
		pSub.Close()
		st := primary.srv.ship.Stats()
		return len(pState.Groups) == 0 && st.Followers == 1 && st.AckPos == st.StreamPos
	})

	// Clean close both; recover both directories; the recovered states
	// must again be byte-identical (POI history, epoch, no groups).
	standby.kill()
	standbyDead = true
	primary.kill()
	primaryDead = true
	pFinal, _, err := durable.Recover(pDir)
	if err != nil {
		t.Fatal(err)
	}
	sFinal, _, err := durable.Recover(sDir)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(durable.AppendStateFrames(nil, pFinal), durable.AppendStateFrames(nil, sFinal)) {
		t.Fatalf("recovered follower state diverged from primary:\nprimary:  %+v\nfollower: %+v", pFinal, sFinal)
	}
	if len(pFinal.Groups) != 0 {
		t.Fatalf("clean close left %d groups in the primary log", len(pFinal.Groups))
	}
	if pFinal.Epoch == 0 {
		t.Fatal("replicating primary never journaled its epoch")
	}
}

// TestNetServerRefusesPOIChurn: a net server's POI set is fixed
// (core.ErrFixedPOIs) on every path a POI batch can reach it by. A
// replicated batch stops a standby's tail instead of being applied to an
// index the network backend never plans with, and a journaled batch
// fails the POI replay of a boot from that state directory.
func TestNetServerRefusesPOIChurn(t *testing.T) {
	pcfg := failoverConfig(t, nil)
	pcfg.method, pcfg.replicateTo = "net", "127.0.0.1:0"
	primary := startFailoverNode(t, pcfg)
	primaryDead := false
	defer func() {
		if !primaryDead {
			primary.kill()
		}
	}()
	scfg := failoverConfig(t, nil)
	scfg.method, scfg.standbyOf = "net", primary.srv.replAddr()
	standby := startFailoverNode(t, scfg)
	defer standby.kill()
	waitCond(t, "standby connected to primary", func() bool {
		return standby.srv.tail.Stats().Connected
	})

	n := primary.srv.planner.NumPOIs()
	batch := durable.Record{Type: durable.RecPOIs, Inserts: []geom.Point{geom.Pt(0.5, 0.5)}}
	if err := primary.srv.applyReplicated(batch); !errors.Is(err, core.ErrFixedPOIs) {
		t.Fatalf("applyReplicated(RecPOIs) = %v, want ErrFixedPOIs", err)
	}
	// Journal the batch as a primary that had applied it would: the
	// record ships, and the standby must refuse it.
	primary.srv.store.POIBatch(n, batch.Inserts, nil)
	waitCond(t, "standby tail stopped", func() bool { return standby.srv.tail.Err() != nil })
	if err := standby.srv.tail.Err(); !errors.Is(err, core.ErrFixedPOIs) || !errors.Is(err, replica.ErrDiverged) {
		t.Fatalf("standby tail error %v, want ErrDiverged wrapping ErrFixedPOIs", err)
	}
	if got := standby.srv.planner.NumPOIs(); got != n {
		t.Fatalf("standby POIs %d → %d", n, got)
	}

	primary.kill()
	primaryDead = true
	pcfg.replicateTo = ""
	srv, err := newServer(pcfg)
	if err == nil {
		srv.close()
	}
	if !errors.Is(err, core.ErrFixedPOIs) {
		t.Fatalf("boot from a log with a POI batch: err %v, want ErrFixedPOIs", err)
	}
}
