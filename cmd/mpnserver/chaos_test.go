package main

// Chaos end-to-end suite: the full TCP stack — reconnecting clients,
// guarded connections, coordinator, sharded engine — driven through
// deterministic fault schedules (frame drops/tears/delays, mid-stream
// connection cuts, planner panics, queue saturation, server restart).
// After the churn the faults are disarmed and every surviving client is
// fenced differentially: its final meeting point and re-encoded safe
// region must be byte-identical to a fault-free computation over the
// same final locations. Faults may cost latency and retries; they must
// never cost correctness.
//
// Seeds come from CHAOS_SEEDS (comma-separated, default "1") so CI can
// run a fixed matrix.

import (
	"bytes"
	"fmt"
	"io"
	"log"
	"math/rand"
	"net"
	"os"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"mpn/internal/core"
	"mpn/internal/faultinject"
	"mpn/internal/geom"
	"mpn/internal/gnn"
	"mpn/internal/proto"
)

// chaosSchedule is one named fault configuration.
type chaosSchedule struct {
	name string
	// connOpts builds the per-dial transport fault schedule; nil leaves
	// connections clean. Applied only while the harness faults are live.
	connOpts func(seed int64, user uint32) faultinject.ConnOpts
	// script arms process-wide failpoints for the churn phase; nil arms
	// nothing.
	script func(seed int64) faultinject.Script
	// restart kills the server mid-churn and brings a fresh one up on a
	// new port (clients must re-register and rebuild the group).
	restart bool
	// durable runs the server with a state directory shared across the
	// restart: the kill is a simulated crash (WAL truncated to its last
	// fsynced byte, nothing drained), and the replacement server must
	// re-own every durable group from the recovered log before taking
	// traffic.
	durable bool
	// tweak adjusts the server config (e.g. a single shard).
	tweak func(*serverConfig)
}

func chaosSchedules() []chaosSchedule {
	return []chaosSchedule{
		{
			// The fault-free anchor: same script, no faults. Its fence
			// against the independent planner is what makes the faulted
			// runs' fences differential — everyone must match the same
			// fault-free computation.
			name: "clean",
		},
		{
			name: "frame-faults",
			connOpts: func(seed int64, user uint32) faultinject.ConnOpts {
				return faultinject.ConnOpts{
					Seed:         seed*100 + int64(user),
					DropEveryNth: 7,
					TearEveryNth: 5, TearPause: time.Millisecond,
					DelayEveryNth: 3, Delay: 2 * time.Millisecond,
				}
			},
		},
		{
			name: "conn-cut",
			connOpts: func(seed int64, user uint32) faultinject.ConnOpts {
				return faultinject.ConnOpts{Seed: seed, CutAfter: 25}
			},
		},
		{
			name: "planner-panic",
			script: func(seed int64) faultinject.Script {
				return faultinject.Script{
					faultinject.EnginePlan: faultinject.PanicEvery(4, "chaos: injected planner fault"),
				}
			},
		},
		{
			name: "stall-overload",
			script: func(seed int64) faultinject.Script {
				return faultinject.Script{
					faultinject.EnginePlan: faultinject.StallEvery(1, 30*time.Millisecond),
				}
			},
			tweak: func(cfg *serverConfig) {
				cfg.shards = 1
			},
		},
		{
			name:    "server-restart",
			restart: true,
		},
		{
			// Kill-and-restore: crash the durable server mid-churn and
			// fence the restored one against the same fault-free plan.
			name:    "kill-restore",
			restart: true,
			durable: true,
		},
		{
			// Same, with a torn write on disk: one WAL append persists
			// only its first 5 bytes (a frame header cut mid-field, as a
			// real power cut can leave), then the writer wedges. Recovery
			// must truncate the torn tail and restore the valid prefix.
			name:    "kill-restore-torn",
			restart: true,
			durable: true,
			script: func(seed int64) faultinject.Script {
				return faultinject.Script{
					faultinject.WALAppend: func(hit uint64) faultinject.Effect {
						if hit == 3 {
							return faultinject.Effect{ShortWrite: 5}
						}
						return faultinject.Effect{}
					},
				}
			},
		},
		{
			// Same, crashing before the fsync can run: the sync path
			// panics (recovered by the writer as a crash), so everything
			// after the last completed sync is lost — recovery must come
			// up from the older prefix without phantom state.
			name:    "kill-restore-nosync",
			restart: true,
			durable: true,
			script: func(seed int64) faultinject.Script {
				return faultinject.Script{
					faultinject.WALSync: faultinject.PanicOn(2, "chaos: injected crash before fsync"),
				}
			},
		},
	}
}

// chaosHarness runs the real server behind a restartable TCP listener.
type chaosHarness struct {
	t    *testing.T
	cfg  serverConfig
	mu   sync.Mutex
	srv  *server
	ln   net.Listener
	live bool
	// faultsLive gates transport fault injection: dials during the fence
	// phase come up clean.
	fmu        sync.Mutex
	faultsLive bool
}

// trackingListener records accepted connections so kill() can sever them
// like a crashed process would.
type trackingListener struct {
	net.Listener
	mu    sync.Mutex
	conns []net.Conn
}

func (l *trackingListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	l.mu.Lock()
	l.conns = append(l.conns, c)
	l.mu.Unlock()
	return c, nil
}

func (l *trackingListener) killConns() {
	l.mu.Lock()
	defer l.mu.Unlock()
	for _, c := range l.conns {
		c.Close()
	}
	l.conns = nil
}

func (h *chaosHarness) start() {
	h.t.Helper()
	srv, err := newServer(h.cfg)
	if err != nil {
		h.t.Fatal(err)
	}
	raw, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		h.t.Fatal(err)
	}
	ln := &trackingListener{Listener: raw}
	h.mu.Lock()
	h.srv, h.ln, h.live = srv, ln, true
	h.mu.Unlock()
	go func() { _ = srv.serve(ln) }()
}

func (h *chaosHarness) addr() string {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.ln.Addr().String()
}

// kill tears the server down like a crash: listener gone, every live
// connection severed, engine closed.
func (h *chaosHarness) kill() {
	h.mu.Lock()
	srv, ln, live := h.srv, h.ln, h.live
	h.live = false
	h.mu.Unlock()
	if !live {
		return
	}
	ln.Close()
	ln.(*trackingListener).killConns()
	srv.close()
}

// crash is kill without the clean shutdown: the WAL is truncated to its
// last fsynced byte before anything drains, so the replacement server
// recovers exactly what a dead process would have left on disk.
func (h *chaosHarness) crash() {
	h.mu.Lock()
	srv, ln, live := h.srv, h.ln, h.live
	h.live = false
	h.mu.Unlock()
	if !live {
		return
	}
	// Wedge the WAL before severing connections: a dead process cannot
	// journal the group teardowns its disappearing clients would cause.
	// (Severing first would fsync those unregistrations and durably
	// dissolve groups the crash should have preserved.)
	srv.crash()
	ln.Close()
	ln.(*trackingListener).killConns()
}

// ownsGroup reports whether the current server holds an engine mapping
// for the protocol group (i.e. re-owns it after a durable restore).
func (h *chaosHarness) ownsGroup(gid uint32) bool {
	h.mu.Lock()
	srv := h.srv
	h.mu.Unlock()
	srv.mu.Lock()
	defer srv.mu.Unlock()
	_, ok := srv.gidToEngine[gid]
	return ok
}

func (h *chaosHarness) setFaultsLive(v bool) {
	h.fmu.Lock()
	h.faultsLive = v
	h.fmu.Unlock()
}

func (h *chaosHarness) faultsAreLive() bool {
	h.fmu.Lock()
	defer h.fmu.Unlock()
	return h.faultsLive
}

// chaosUser is one reconnecting client with a scripted location.
type chaosUser struct {
	id uint32
	rc *proto.ReconnectClient
	mu sync.Mutex
	pt geom.Point
}

func (u *chaosUser) setLoc(p geom.Point) { u.mu.Lock(); u.pt = p; u.mu.Unlock() }
func (u *chaosUser) loc() geom.Point     { u.mu.Lock(); defer u.mu.Unlock(); return u.pt }

// report delivers one escape report, retrying through disconnects; under
// chaos a report may still be lost after a successful write — the fence
// loop's re-reports are the safety net, so losing this one is fine.
func (u *chaosUser) report() {
	deadline := time.Now().Add(2 * time.Second)
	for {
		if err := u.rc.Report(); err == nil || time.Now().After(deadline) {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func newChaosUser(t *testing.T, h *chaosHarness, sched chaosSchedule, seed int64, id uint32, start geom.Point, groupSize uint32) *chaosUser {
	t.Helper()
	u := &chaosUser{id: id, pt: start}
	dial := func() (io.ReadWriteCloser, error) {
		conn, err := net.Dial("tcp", h.addr())
		if err != nil {
			return nil, err
		}
		if sched.connOpts != nil && h.faultsAreLive() {
			return faultinject.WrapConn(conn, sched.connOpts(seed, id)), nil
		}
		return conn, nil
	}
	rc, err := proto.NewReconnectClient(dial, 1, id, groupSize, u.loc, nil,
		proto.Backoff{Min: 10 * time.Millisecond, Max: 250 * time.Millisecond, Factor: 2, Jitter: 0.2, Seed: seed*10 + int64(id)},
		proto.WithHeartbeat(50*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	u.rc = rc
	rc.Start()
	return u
}

// chaosExpect computes the fault-free final plan with an independent
// planner over the same POIs, options, and final locations — the fence
// target every run, clean or faulted, must match byte for byte.
type chaosExpect struct {
	meeting geom.Point
	regions [][]byte
}

func chaosExpected(t *testing.T, pois []geom.Point, finals []geom.Point) chaosExpect {
	t.Helper()
	opts := core.DefaultOptions()
	opts.TileLimit = 5
	opts.Buffer = 20
	opts.Directed = true
	opts.Aggregate = gnn.Max
	planner, err := core.NewPlanner(pois, opts)
	if err != nil {
		t.Fatal(err)
	}
	plan, _, err := planner.Plan(core.NewWorkspace(), core.PlanRequest{Kind: core.KindTiles, Users: finals})
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Regions) != len(finals) {
		t.Fatalf("planner produced %d regions for %d users", len(plan.Regions), len(finals))
	}
	exp := chaosExpect{meeting: plan.Best.Item.P}
	for _, r := range plan.Regions {
		// One decode/encode cycle normalizes the wire form (the planner's
		// native encoding and the re-encoded decoded form differ in
		// representation, stably, after the first cycle) — clients hold
		// decoded regions, so the fence compares in that space.
		dec, err := proto.DecodeRegion(proto.EncodeRegion(r))
		if err != nil {
			t.Fatal(err)
		}
		exp.regions = append(exp.regions, proto.EncodeRegion(dec))
	}
	return exp
}

func chaosSeeds(t *testing.T) []int64 {
	spec := os.Getenv("CHAOS_SEEDS")
	if spec == "" {
		spec = "1"
	}
	var seeds []int64
	for _, part := range strings.Split(spec, ",") {
		s, err := strconv.ParseInt(strings.TrimSpace(part), 10, 64)
		if err != nil {
			t.Fatalf("CHAOS_SEEDS: %v", err)
		}
		seeds = append(seeds, s)
	}
	return seeds
}

// scriptLoc is the deterministic churn trajectory (no shared state, no
// randomness: the same round always yields the same point).
func scriptLoc(round int) geom.Point {
	frac := func(x float64) float64 { return x - float64(int(x)) }
	return geom.Pt(0.1+0.8*frac(float64(round)*0.37), 0.1+0.8*frac(float64(round)*0.61))
}

func TestChaos(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	pois := make([]geom.Point, 500)
	for i := range pois {
		pois[i] = geom.Pt(rng.Float64(), rng.Float64())
	}
	starts := []geom.Point{geom.Pt(0.30, 0.30), geom.Pt(0.35, 0.32), geom.Pt(0.31, 0.36)}
	finals := []geom.Point{geom.Pt(0.30, 0.30), geom.Pt(0.60, 0.35), geom.Pt(0.40, 0.65)}
	want := chaosExpected(t, pois, finals)
	seeds := chaosSeeds(t)

	for _, sched := range chaosSchedules() {
		for _, seed := range seeds {
			t.Run(fmt.Sprintf("%s/seed=%d", sched.name, seed), func(t *testing.T) {
				runChaosSchedule(t, sched, seed, pois, starts, finals, want)
			})
		}
	}
}

func runChaosSchedule(t *testing.T, sched chaosSchedule, seed int64, pois, starts, finals []geom.Point, want chaosExpect) {
	baseGoroutines := runtime.NumGoroutine()

	cfg := serverConfig{
		pois: pois, method: "tiled", agg: "max",
		alpha: 5, buffer: 20, shards: 2, workers: 1,
		readTimeout: 2 * time.Second, writeTimeout: 2 * time.Second,
		logger: log.New(io.Discard, "", 0),
	}
	if sched.durable {
		// One state directory across the whole schedule: the restarted
		// server recovers from it. A short fsync interval keeps the
		// crash loss window tight relative to the 20ms churn cadence.
		cfg.stateDir = t.TempDir()
		cfg.fsync = "interval"
		cfg.fsyncEvery = 2 * time.Millisecond
	}
	if sched.tweak != nil {
		sched.tweak(&cfg)
	}
	h := &chaosHarness{t: t, cfg: cfg}
	h.setFaultsLive(true)
	if sched.script != nil {
		faultinject.Arm(sched.script(seed))
	}
	defer faultinject.Disarm()
	h.start()
	defer h.kill()

	users := make([]*chaosUser, len(starts))
	for i, p := range starts {
		users[i] = newChaosUser(t, h, sched, seed, uint32(i), p, uint32(len(starts)))
	}
	defer func() {
		for _, u := range users {
			u.rc.Stop()
		}
	}()

	// The overload schedule needs competing groups: one group sits in
	// the run queue at most once, so a fleet of single-user groups
	// burst-reports into the stalled shard to queue several at once.
	var aux []*e2eUser
	if sched.name == "stall-overload" {
		for i := 0; i < 6; i++ {
			a := dialUser(t, h.addr(), uint32(100+i), 0, geom.Pt(0.2+0.1*float64(i), 0.2))
			if err := a.client.Register(1); err != nil {
				t.Fatal(err)
			}
			a.waitNotify(t)
			aux = append(aux, a)
		}
	}

	// Churn: scripted movement and reports while the faults are live. No
	// assertions here — under chaos any individual round may be lost; the
	// system just has to survive it.
	const rounds = 18
	maxQueued := 0 // the stall-overload shard's longest sampled run queue
	for r := 0; r < rounds; r++ {
		if sched.restart && r == rounds/2 {
			if sched.durable {
				h.crash()
				h.start() // recovers the state directory on boot
				// The group was journaled and fsynced long before the
				// crash (registration commits at round 0, the fsync
				// interval is milliseconds), so the restored server must
				// already own it — before any client reconnects.
				if !h.ownsGroup(1) {
					t.Fatal("restored server does not own the durable group")
				}
			} else {
				h.kill()
				h.start() // fresh port; the dial function re-reads addr()
			}
		}
		u := users[r%len(users)]
		u.setLoc(scriptLoc(r))
		u.report()
		for k, a := range aux {
			// Back-to-back reports from distinct groups against a shard
			// whose only worker is stalled: they wait in its run queue.
			a.setLoc(geom.Pt(0.2+0.1*float64(k), 0.2+0.01*float64(r+1)))
			if err := a.client.Report(); err != nil {
				t.Fatal(err)
			}
		}
		time.Sleep(20 * time.Millisecond)
		if aux != nil {
			maxQueued = max(maxQueued, h.srv.eng.Counters().Queued)
		}
	}

	// Fence: faults off, everyone at their final location. A report over
	// the final locations recomputes the deterministic final plan; retry
	// until every surviving client exposes it byte-identically.
	faultinject.Disarm()
	h.setFaultsLive(false)
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
			for i, u := range users {
				t.Logf("user %d: meeting=%v want=%v region-match=%v reconnects=%d connected=%v",
					i, u.rc.Meeting(), want.meeting,
					bytes.Equal(proto.EncodeRegion(u.rc.Region()), want.regions[i]),
					u.rc.Reconnects(), u.rc.Connected())
			}
			t.Fatal("fence never converged on the fault-free plan")
		}
	}

	// Under the stalled-shard schedule the overload must have been both
	// exercised — the shard held several groups' reports at once — and
	// survivable: the fence held above, and no queued group's client
	// died waiting.
	if sched.name == "stall-overload" {
		t.Logf("overload: longest sampled run queue %d", maxQueued)
		if maxQueued < 2 {
			t.Fatal("the stalled shard never held two groups at once: overload was not exercised")
		}
		for k, a := range aux {
			select {
			case err := <-a.runErr:
				t.Fatalf("aux client %d died under overload: %v", k, err)
			default:
			}
		}
	}

	// Teardown everything and require the goroutine count to return to
	// its pre-test baseline: no leaked writers, pingers, workers, or
	// reconnect loops under any schedule.
	for _, u := range users {
		u.rc.Stop()
	}
	h.kill()
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

func chaosConverged(users []*chaosUser, want chaosExpect) bool {
	for i, u := range users {
		if u.rc.Meeting() != want.meeting {
			return false
		}
		if !bytes.Equal(proto.EncodeRegion(u.rc.Region()), want.regions[i]) {
			return false
		}
	}
	return true
}
