package main

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"net"
	"sync/atomic"
	"time"

	"mpn/internal/core"
	"mpn/internal/geom"
	"mpn/internal/mobility"
	"mpn/internal/proto"
	"mpn/internal/roadnet"
)

const (
	// trajSteps is each mover's generated trajectory length; positions
	// beyond it walk the trajectory back and forth, so a mover never
	// teleports and never runs out.
	trajSteps = 2048
	// moverSpeed is V, the distance per timestamp (the paper's default).
	moverSpeed = 0.0004
	// groupSpread bounds how far a member starts from the group's anchor.
	groupSpread = 0.1
	// opTimeout is how long an op may take before it counts as failed.
	opTimeout = 10 * time.Second
	// maxQuietSteps bounds the search for the next escape: a group whose
	// members all stay inside their regions this long fails the op
	// instead of spinning forever.
	maxQuietSteps = 200_000
	// containTol is the slack of the region-contains-location check.
	containTol = 1e-6
	// oracleEvery is the sampling stride of the brute-force oracle.
	oracleEvery = 16
)

// scenarioSeed fixes where the groups of the Euclidean workloads live
// relative to the POIs. Placement is part of the workload, like the
// server's POI set: with placement drawn from -seed the cost of a plan
// (dense or sparse neighbourhood, near or far members) swung the timing
// metrics by 40 % from seed to seed. -seed drives how everyone moves.
const scenarioSeed = 20130408

// inputs is what the generator derives from -seed before any clock
// starts: one trajectory per member of the resident fleet and of every
// join_storm session.
type inputs struct {
	fleet    [][]mobility.Trajectory
	sessions [][]mobility.Trajectory
}

// world is what every pass of a run shares: the road network of the
// network workload.
type world struct{ netw *roadnet.Network }

func newWorld(sp spec) (*world, error) {
	w := &world{}
	if sp.net {
		var err error
		if w.netw, err = roadnet.Generate(roadnet.DefaultConfig()); err != nil {
			return nil, err
		}
	}
	return w, nil
}

// makeInputs generates the trajectories of one pass. variant separates
// the passes of a run: each pass moves differently, so a run samples
// variant-many times the ops of one pass.
//
// Euclidean groups are placed on a stratified grid (one anchor per cell,
// members within groupSpread of it) from scenarioSeed; network movers
// start at the junction their own trajectory seed picks.
func (w *world) makeInputs(sp spec, seed int64, variant int) (*inputs, error) {
	place := rand.New(rand.NewSource(scenarioSeed))
	motion := rand.New(rand.NewSource(seed*1_000_003 + int64(variant)))
	total := sp.groups + sp.warmSessions + sp.timedSessions
	cells := int(math.Ceil(math.Sqrt(float64(total))))
	group := func(n int) ([]mobility.Trajectory, error) {
		cx, cy := float64(n%cells), float64(n/cells)
		anchor := geom.Pt(0.05+0.9*(cx+place.Float64())/float64(cells), 0.05+0.9*(cy+place.Float64())/float64(cells))
		trajs := make([]mobility.Trajectory, sp.m)
		for i := range trajs {
			var err error
			if sp.net {
				cfg := mobility.DefaultNetworkConfig()
				cfg.Steps, cfg.Speed, cfg.Seed = trajSteps, moverSpeed, motion.Int63()
				trajs[i], err = mobility.NetworkTrajectory(w.netw, cfg)
			} else {
				cfg := mobility.DefaultWaypointConfig()
				cfg.Steps, cfg.Speed, cfg.Seed = trajSteps, moverSpeed, motion.Int63()
				cfg.Randomize = false
				cfg.Start = geom.Pt(
					anchor.X+(place.Float64()-0.5)*groupSpread,
					anchor.Y+(place.Float64()-0.5)*groupSpread)
				trajs[i], err = mobility.GeoLifeStyle(cfg)
			}
			if err != nil {
				return nil, err
			}
		}
		return trajs, nil
	}
	in := &inputs{}
	for n := 0; n < total; n++ {
		t, err := group(n)
		if err != nil {
			return nil, err
		}
		if n < sp.groups {
			in.fleet = append(in.fleet, t)
		} else {
			in.sessions = append(in.sessions, t)
		}
	}
	return in, nil
}

// ioCount sums payload bytes over every client connection of a pass.
type ioCount struct{ read, written atomic.Int64 }

func (c *ioCount) total() int64 { return c.read.Load() + c.written.Load() }

// countConn counts bytes and, on a traced pass, stamps writes and
// classifies the frames the server sends.
type countConn struct {
	net.Conn
	io *ioCount
	m  *member // non-nil on a traced pass
}

func (c *countConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.io.read.Add(int64(n))
	if c.m != nil {
		c.m.sniff.feed(p[:n])
	}
	return n, err
}

func (c *countConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	c.io.written.Add(int64(n))
	if c.m != nil {
		c.m.tWrite.Store(nowNs())
	}
	return n, err
}

// member is one user: a trajectory, a connection and a proto.Client.
type member struct {
	g    *group
	idx  int
	traj mobility.Trajectory
	conn net.Conn
	cl   *proto.Client
	done chan struct{} // closed when Run has returned

	// Traced passes only: when the member last received a probe, wrote a
	// frame and applied a notification (nowNs). The sniffer belongs to
	// the Run goroutine; the driver reads its result after the op's
	// notification event.
	tProbe, tWrite, tNotify atomic.Int64
	sniff                   sniffer
}

// at returns the member's position at timestamp t, reflecting at the
// trajectory's ends.
func (m *member) at(t int64) geom.Point {
	n := int64(len(m.traj))
	if n == 1 {
		return m.traj[0]
	}
	t %= 2*n - 2
	if t >= n {
		t = 2*n - 2 - t
	}
	return m.traj[t]
}

// group is one user group. Its clock t is frozen while a request is
// outstanding: members answer probes with their position at t.
type group struct {
	f        *fleet
	gid      uint32
	members  []*member
	t        atomic.Int64
	reporter atomic.Int64 // member index of the op's reporter, -1 while joining
	dead     bool
	// events carries one member index per applied notification and
	// -(idx+1) when a member's Run loop ends. Sized so that neither ever
	// blocks: at most m notifications and m exits are pending.
	events chan int
}

// fleet is the generator's state for one pass against one server.
type fleet struct {
	sp     spec
	addr   string
	io     ioCount
	traced bool
}

func (f *fleet) newGroup(gid uint32, trajs []mobility.Trajectory) *group {
	g := &group{f: f, gid: gid, events: make(chan int, 2*len(trajs)+2)}
	g.reporter.Store(-1)
	for i, tr := range trajs {
		g.members = append(g.members, &member{g: g, idx: i, traj: tr, done: make(chan struct{})})
	}
	return g
}

// join dials one connection per member, registers them in user-id order
// and waits until every member holds the first notification.
func (g *group) join() error {
	for _, m := range g.members {
		conn, err := net.Dial("tcp", g.f.addr)
		if err != nil {
			return err
		}
		cc := &countConn{Conn: conn, io: &g.f.io}
		if g.f.traced {
			cc.m = m
		}
		m.conn = cc
		cl, err := proto.NewClient(cc, g.gid, uint32(m.idx+1),
			func() geom.Point {
				if g.f.traced && int64(m.idx) != g.reporter.Load() {
					m.tProbe.Store(nowNs())
				}
				return m.at(g.t.Load())
			},
			func(geom.Point, core.SafeRegion) {
				if g.f.traced {
					m.tNotify.Store(nowNs())
				}
				g.events <- m.idx
			})
		if err != nil {
			return err
		}
		m.cl = cl
		go func() {
			_ = cl.Run() // a failed Run surfaces as the exit event below
			close(m.done)
			g.events <- -(m.idx + 1)
		}()
	}
	for _, m := range g.members {
		if err := m.cl.Register(uint32(len(g.members))); err != nil {
			return err
		}
	}
	return g.await()
}

// await blocks until every member has applied one notification.
func (g *group) await() error {
	timeout := time.NewTimer(opTimeout)
	defer timeout.Stop()
	for pending := len(g.members); pending > 0; {
		select {
		case ev := <-g.events:
			if ev < 0 {
				return fmt.Errorf("group %d: member %d disconnected", g.gid, -ev)
			}
			pending--
		case <-timeout.C:
			return fmt.Errorf("group %d: no notification within %v", g.gid, opTimeout)
		}
	}
	return nil
}

// close disconnects every member and waits for its Run loop to end.
func (g *group) close() {
	for _, m := range g.members {
		if m.conn != nil {
			m.conn.Close()
		}
	}
	for _, m := range g.members {
		if m.cl != nil {
			<-m.done
		}
	}
}

// step advances the group's clock one timestamp and returns the
// lowest-id member now outside their safe region, or -1.
func (g *group) step() int {
	t := g.t.Add(1)
	for _, m := range g.members {
		if m.cl.NeedsUpdate(m.at(t)) {
			return m.idx
		}
	}
	return -1
}

// report sends the reporter's TReport and returns once all members have
// applied their notification; t1-t0 is the op's latency.
func (g *group) report(reporter int) (t0, t1 int64, err error) {
	g.reporter.Store(int64(reporter))
	t0 = nowNs()
	if err := g.members[reporter].cl.Report(); err != nil {
		return t0, t0, err
	}
	err = g.await()
	return t0, nowNs(), err
}

// check is the per-op correctness test: every member's region contains
// their current location and all members hold the same meeting point.
func (g *group) check() (geom.Point, error) {
	t := g.t.Load()
	meeting := g.members[0].cl.Meeting()
	for _, m := range g.members {
		if !inRegion(m.cl.Region(), m.at(t)) {
			return meeting, fmt.Errorf("group %d: member %d is outside their fresh region", g.gid, m.idx+1)
		}
		if m.cl.Meeting() != meeting {
			return meeting, fmt.Errorf("group %d: members disagree on the meeting point", g.gid)
		}
	}
	return meeting, nil
}

// inRegion is the containment test of the per-op check. The tile codec
// quantizes inward on a lattice of pitch δ·2⁻¹⁶, so a member standing
// exactly on a tile edge can decode a hair outside; containTol covers the
// lattice pitch and is far below one timestamp's movement.
func inRegion(r core.SafeRegion, p geom.Point) bool {
	return r.Contains(p) || (r.Kind != core.KindNetRange && r.MinDist(p) <= containTol)
}

func (g *group) locations() []geom.Point {
	t := g.t.Load()
	out := make([]geom.Point, len(g.members))
	for i, m := range g.members {
		out[i] = m.at(t)
	}
	return out
}

// sample is one op kept for the brute-force oracle.
type sample struct {
	users   []geom.Point
	meeting geom.Point
}

// request is one planning request as the server saw it, kept on traced
// passes so the layers can be replayed in process.
type request struct {
	gid   uint32
	users []geom.Point
}

// passResult is what one pass against a fresh server measured.
type passResult struct {
	setupS     float64
	latMs      []float64 // one per timed op; a failed op holds opTimeout
	wallS      float64
	cpuMs      float64
	bytes      int64
	ops        int
	failed     int
	timestamps int64
	rssMB      float64
	meetHash   uint64
	samples    []sample
	firstErr   error
	// prefix is the counts after the first timed round (every group's
	// first timed op, or the first timed session): what a twin pass
	// reproduces.
	prefix counts

	spinMs [2]float64 // host sentinel before and after the pass
	// setupParts splits the set-up into the spawn and one part per
	// setupChunk groups joined. Placement is fixed, so part k is the same
	// work in every pass of a run.
	setupParts []float64

	// durable_ship
	shipBytes      int64
	recordsMissing int
	lagMs          []float64

	// traced passes
	spans    []span
	frames   []frameInfo
	requests []request
	stateDir string // kept for the recovery replay when non-empty
}

// setupChunk is how many groups' joins make one part of the set-up.
const setupChunk = 4

// counts are the count-valued observations of a stretch of ops; for one
// seed they repeat exactly from pass to pass and run to run.
type counts struct {
	ops        int
	timestamps int64
	bytes      int64
	meetHash   uint64
}

// recorder accumulates the timed phase of a pass.
type recorder struct {
	res    *passResult
	f      *fleet
	timed  bool
	opSeq  int
	tr     *tracer
	follow *follower
}

func (r *recorder) hashMeeting(p geom.Point, reporter int64) {
	h := r.res.meetHash
	if h == 0 {
		h = 14695981039346656037
	}
	for _, v := range []uint64{math.Float64bits(p.X), math.Float64bits(p.Y), uint64(reporter)} {
		for i := 0; i < 8; i++ {
			h ^= v >> (8 * i) & 0xff
			h *= 1099511628211
		}
	}
	r.res.meetHash = h
}

// fail records a failed op: it counts against the attempts and keeps its
// place in the latency sample at the timeout.
func (r *recorder) fail(g *group, err error) {
	g.dead = true
	if r.res.firstErr == nil {
		r.res.firstErr = err
	}
	if r.timed {
		r.res.ops++
		r.res.failed++
		r.res.latMs = append(r.res.latMs, float64(opTimeout.Milliseconds()))
	}
}

// done records a completed op after running the per-op check.
func (r *recorder) done(g *group, kind string, t0, t1 int64) {
	meeting, err := g.check()
	if err != nil {
		r.fail(g, err)
		return
	}
	if r.tr != nil {
		r.tr.op(r.opSeq, g, kind, t0, t1)
		r.res.requests = append(r.res.requests, request{gid: g.gid, users: g.locations()})
	}
	if r.follow != nil {
		r.follow.notified(t1)
	}
	r.opSeq++
	if !r.timed {
		return
	}
	r.hashMeeting(meeting, g.reporter.Load())
	if r.res.ops%oracleEvery == 0 {
		r.res.samples = append(r.res.samples, sample{users: g.locations(), meeting: meeting})
	}
	r.res.ops++
	r.res.latMs = append(r.res.latMs, float64(t1-t0)/1e6)
}

// nextOp moves the group forward to its next escape and runs that op.
func (r *recorder) nextOp(g *group) {
	if g.dead {
		r.fail(g, errors.New("group already failed"))
		return
	}
	reporter := -1
	for quiet := 0; reporter < 0; quiet++ {
		if quiet == maxQuietSteps {
			r.fail(g, fmt.Errorf("group %d: nobody left their region in %d timestamps", g.gid, maxQuietSteps))
			return
		}
		reporter = g.step()
		if r.timed {
			r.res.timestamps++
		}
	}
	t0, t1, err := g.report(reporter)
	if err != nil {
		r.fail(g, err)
		return
	}
	r.done(g, "report", t0, t1)
}

// session is one join_storm visit: join, move sessionSteps timestamps
// reporting on escape, leave.
func (r *recorder) session(gid uint32, trajs []mobility.Trajectory) {
	g := r.f.newGroup(gid, trajs)
	defer g.close()
	if r.timed {
		r.res.timestamps++
	}
	t0 := nowNs()
	if err := g.join(); err != nil {
		r.fail(g, err)
		return
	}
	r.done(g, "join", t0, nowNs())
	for s := 0; s < r.f.sp.sessionSteps && !g.dead; s++ {
		reporter := g.step()
		if r.timed {
			r.res.timestamps++
		}
		if reporter < 0 {
			continue
		}
		t0, t1, err := g.report(reporter)
		if err != nil {
			r.fail(g, err)
			return
		}
		r.done(g, "report", t0, t1)
	}
}

// runPass measures one pass: a fresh server, the fleet joined
// sequentially in id order, the untimed warm-up quota, then the timed
// quota with groups visited round-robin and one request in flight.
//
// A twin pass stops after the first timed round: it exists to show that
// the same inputs give the same counts, and to time one more set-up.
func runPass(bin string, sp spec, in *inputs, traced, twin bool, stateDir string) (*passResult, error) {
	res := &passResult{}
	res.spinMs[0] = spin()

	flags := sp.flags
	var follow *follower
	if sp.durable {
		replAddr, err := freeAddr()
		if err != nil {
			return nil, err
		}
		flags = append(append([]string(nil), flags...), "-state-dir", stateDir, "-replicate-to", replAddr)
		follow = &follower{addr: replAddr}
	}

	spawn := time.Now()
	srv, err := startServer(bin, flags)
	if err != nil {
		return nil, err
	}
	defer srv.stop()
	if follow != nil {
		if err := follow.start(); err != nil {
			return nil, err
		}
		defer follow.stop()
	}
	part := time.Now()
	res.setupParts = append(res.setupParts, part.Sub(spawn).Seconds())

	f := &fleet{sp: sp, addr: srv.addr, traced: traced}
	groups := make([]*group, len(in.fleet))
	defer func() {
		for _, g := range groups {
			if g != nil {
				g.close()
			}
		}
	}()
	rec := &recorder{res: res, f: f, follow: follow}
	if traced {
		rec.tr = &tracer{}
	}
	for i, trajs := range in.fleet {
		groups[i] = f.newGroup(uint32(i+1), trajs)
		t0 := nowNs()
		if err := groups[i].join(); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		if traced {
			// Set-up joins get negative op ids: they precede op 0.
			rec.tr.op(i-len(in.fleet), groups[i], "join", t0, nowNs())
			res.requests = append(res.requests, request{gid: groups[i].gid, users: groups[i].locations()})
		}
		if (i+1)%setupChunk == 0 || i+1 == len(in.fleet) {
			now := time.Now()
			res.setupParts = append(res.setupParts, now.Sub(part).Seconds())
			part = now
		}
	}
	res.setupS = time.Since(spawn).Seconds()

	var bytes0 int64
	// phase runs ops rounds over the fleet, then the sessions; it reports
	// false when a twin pass has seen its one timed round.
	phase := func(ops, sessions, firstSession int) bool {
		rounds := 0
		endRound := func() bool {
			rounds++
			if rec.timed && rounds == 1 {
				res.prefix = counts{res.ops, res.timestamps, f.io.total() - bytes0, res.meetHash}
				return !twin
			}
			return true
		}
		for k := 0; k < ops; k++ {
			for _, g := range groups {
				rec.nextOp(g)
			}
			if !endRound() {
				return false
			}
		}
		for s := 0; s < sessions; s++ {
			n := firstSession + s
			rec.session(uint32(len(groups)+1+n), in.sessions[n])
			if !endRound() {
				return false
			}
		}
		return true
	}
	phase(sp.warm, sp.warmSessions, 0)

	cpu0, err := srv.cpuMs()
	if err != nil {
		return nil, err
	}
	bytes0 = f.io.total()
	var ship0 int64
	if follow != nil {
		ship0 = follow.bytes.Load()
	}
	rec.timed = true
	start := time.Now()
	if !phase(sp.timed, sp.timedSessions, sp.warmSessions) {
		return res, nil
	}
	res.wallS = time.Since(start).Seconds()
	res.bytes = f.io.total() - bytes0
	cpu1, err := srv.cpuMs()
	if err != nil {
		return nil, err
	}
	res.cpuMs = cpu1 - cpu0
	if res.rssMB, err = srv.rssPeakMB(); err != nil {
		return nil, err
	}
	if follow != nil {
		// Every registration and every op commits one group upsert.
		want := len(groups) + rec.opSeq
		res.recordsMissing = follow.settle(want)
		res.shipBytes = follow.bytes.Load() - ship0
		res.lagMs = follow.lagMs(len(groups))
	}
	if rec.tr != nil {
		res.spans = rec.tr.spans
		res.frames = rec.tr.frames
	}
	res.spinMs[1] = spin()
	return res, nil
}
