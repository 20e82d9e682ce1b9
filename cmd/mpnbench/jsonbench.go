package main

// The -json mode: machine-readable micro-benchmarks of the serving paths
// — planning, engine updates, notification encoding, POI churn, the WAL,
// replication and the road-network backend — swept over group size and
// written as JSON (committed as BENCH_plan.json, the baseline
// cmd/benchgate gates against). Every series is a row: a setup and an op
// run once per iteration. measure times each row with testing.Benchmark,
// for ns/op and bytes/op, then replays replayOps ops untimed from a fresh
// setup for the exact fields: allocs/op and the planner's work counts.

import (
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"os"
	"runtime"
	"runtime/debug"
	"testing"
	"time"

	"mpn/internal/benchfmt"
	"mpn/internal/core"
	"mpn/internal/durable"
	"mpn/internal/engine"
	"mpn/internal/geom"
	"mpn/internal/mobility"
	"mpn/internal/netmpn"
	"mpn/internal/proto"
	"mpn/internal/replica"
	"mpn/internal/roadnet"
	"mpn/internal/stats"
	"mpn/internal/workload"
)

// replayOps is the op count of every series' untimed replay: a multiple
// of every op stream's period (the 7-step jitter, the 2-step escape, the
// 8-op churn cycle and net_update_inc's 32 groups × 4 visits), so every
// replay covers whole periods.
const replayOps = 7 * 128

// A fixture is one set-up instance of a series.
type fixture struct {
	// op runs op i and returns the planner work it did.
	op func(i int) (core.Stats, error)
	// drain, when set, waits on the clock until work the ops started in
	// the background is done.
	drain func()
	// close, when set, releases the fixture off the clock.
	close func()
}

// A row is one series. A row without a setup is a wire-size series: it
// carries only wire, measured once when the row was built.
type row struct {
	name  string
	m     int
	setup func() (fixture, error)
	wire  int64
}

// open sets a fixture up, with no-ops for what the row leaves unset.
func (r row) open() (fixture, error) {
	fx, err := r.setup()
	if fx.drain == nil {
		fx.drain = func() {}
	}
	if fx.close == nil {
		fx.close = func() {}
	}
	return fx, err
}

// measure runs one row: timed for ns/op and bytes/op, then replayed for
// the exact fields. A failing op fails the series, on either run.
func measure(r row) (benchfmt.Series, error) {
	s := benchfmt.Series{Name: r.name, GroupSize: r.m, WireBytes: r.wire}
	if r.setup == nil {
		return s, nil
	}
	var opErr error
	res := testing.Benchmark(func(b *testing.B) {
		fail := func(err error) {
			opErr = err
			b.FailNow()
		}
		fx, err := r.open()
		if err != nil {
			fail(err)
		}
		defer fx.close()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := fx.op(i); err != nil {
				fail(err)
			}
		}
		fx.drain()
	})
	if opErr != nil {
		return s, fmt.Errorf("%s m=%d: timed run: %w", r.name, r.m, opErr)
	}
	if res.N == 0 {
		return s, fmt.Errorf("%s m=%d: the timed run measured no ops", r.name, r.m)
	}
	s.NsPerOp = float64(res.NsPerOp())
	s.OpsPerSec = 1e9 / s.NsPerOp
	s.BytesPerOp = res.AllocedBytesPerOp()

	fx, err := r.open()
	if err != nil {
		return s, fmt.Errorf("%s m=%d: %w", r.name, r.m, err)
	}
	defer fx.close()
	// The replay starts from an emptied sync.Pool and runs on one P
	// without a collection, so the count is the same in every sweep: a
	// goroutine that changes P misses its pool cache, and a collection
	// empties the pool, and either allocates anew. What background
	// goroutines allocate (the WAL writer, the follower) still varies by
	// a few allocations, so the total is rounded to the nearest op.
	runtime.GC()
	runtime.GC()
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var work core.Stats
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < replayOps; i++ {
		st, err := fx.op(i)
		if err != nil {
			return s, fmt.Errorf("%s m=%d: replay op %d: %w", r.name, r.m, i, err)
		}
		work.Add(st)
	}
	fx.drain()
	runtime.ReadMemStats(&after)
	s.AllocsPerOp = int64((after.Mallocs - before.Mallocs + replayOps/2) / replayOps)
	s.TileVerifies = int64(work.TileVerifies)
	s.CandidatesChecked = int64(work.CandidatesChecked)
	s.IndexAccesses = int64(work.IndexAccesses)
	return s, nil
}

// runPlanJSONBench runs `rounds` sweeps of every series and writes the
// merged JSON report. The whole sweep repeats end to end, not one series
// back to back, so a transient load spike lands on at most one timed run
// of every series, and the median discards it.
func runPlanJSONBench(out io.Writer, log io.Writer, rounds int) error {
	var reports []benchfmt.Report
	for r := 0; r < max(rounds, 1); r++ {
		if rounds > 1 {
			fmt.Fprintf(log, "round %d/%d:\n", r+1, rounds)
		}
		rep, err := collectPlanReport(log)
		if err != nil {
			return err
		}
		reports = append(reports, rep)
	}
	merged, err := mergeReports(reports)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(out)
	enc.SetIndent("", "  ")
	return enc.Encode(merged)
}

// mergeReports folds the rounds of one sweep into one report. ns/op and
// bytes/op take their median across rounds, and OpsPerSec follows ns/op.
// The exact fields must agree across rounds: if they do not, the fixture
// is nondeterministic, and the sweep fails rather than gating on it.
func mergeReports(reports []benchfmt.Report) (benchfmt.Report, error) {
	merged := reports[0]
	merged.Series = append([]benchfmt.Series(nil), merged.Series...)
	for i := range merged.Series {
		s := &merged.Series[i]
		var ns, bytes []float64
		for r, rep := range reports {
			if len(rep.Series) != len(merged.Series) || rep.Series[i].Name != s.Name || rep.Series[i].GroupSize != s.GroupSize {
				return benchfmt.Report{}, fmt.Errorf("round %d ran other series than round 1", r+1)
			}
			want, got := s.Exact(), rep.Series[i].Exact()
			for f := range want {
				if got[f] != want[f] {
					return benchfmt.Report{}, fmt.Errorf("%s m=%d: %s is %d in round 1 but %d in round %d: the fixture is nondeterministic",
						s.Name, s.GroupSize, benchfmt.ExactFields[f], want[f], got[f], r+1)
				}
			}
			ns = append(ns, rep.Series[i].NsPerOp)
			bytes = append(bytes, float64(rep.Series[i].BytesPerOp))
		}
		s.NsPerOp = stats.Median(ns)
		if s.NsPerOp > 0 {
			s.OpsPerSec = 1e9 / s.NsPerOp
		}
		s.BytesPerOp = int64(stats.Median(bytes))
	}
	return merged, nil
}

// collectPlanReport runs one sweep of every series.
func collectPlanReport(log io.Writer) (benchfmt.Report, error) {
	const (
		tileLimit = 10
		buffer    = 50
	)
	pois, err := workload.GeneratePOIs(workload.DefaultPOIConfig())
	if err != nil {
		return benchfmt.Report{}, err
	}
	opts := core.DefaultOptions()
	opts.TileLimit = tileLimit
	opts.Buffer = buffer
	opts.Directed = true
	planner, err := core.NewPlanner(pois, opts)
	if err != nil {
		return benchfmt.Report{}, err
	}

	var rows []row
	for m := 2; m <= 6; m++ {
		amp, partial := probeEscapeAmp(planner, m)
		fmt.Fprintf(log, "  escape m=%d: amplitude %.5f, %.0f%% of the probe's replans partial\n", m, amp, 100*partial)
		rows = append(rows,
			planRow("plan", m, planner),
			updateRow("update", m, planner, false, jitter, noWAL),
			updateRow("update_inc", m, planner, true, jitter, noWAL),
			updateRow("update_escape", m, planner, false, escape(amp), noWAL),
			updateRow("update_inc_escape", m, planner, true, escape(amp), noWAL),
		)
	}
	for m := 2; m <= 6; m++ {
		notify, err := notifyRows(planner, m, log)
		if err != nil {
			return benchfmt.Report{}, err
		}
		rows = append(rows, notify...)
	}
	rows = append(rows, churnRows(pois, opts)...)
	rows = append(rows,
		updateRow("durable_update", walM, planner, true, jitter, walLocal),
		recordRow("wal_append", walLocal),
		updateRow("repl_ship", walM, planner, true, jitter, walShipped),
		recordRow("repl_lag", walShipped),
	)
	net, err := netRows()
	if err != nil {
		return benchfmt.Report{}, err
	}
	rows = append(rows, net...)

	report := benchfmt.Report{
		Description: "safe-region planning and serving paths by group size: ns/op and bytes/op timed, allocs/op and planner work counts over a fixed replay",
		GoMaxProcs:  runtime.GOMAXPROCS(0),
		POIs:        len(pois),
		TileLimit:   tileLimit,
		Buffer:      buffer,
		ReplayOps:   replayOps,
	}
	for _, r := range rows {
		s, err := measure(r)
		if err != nil {
			return benchfmt.Report{}, err
		}
		report.Series = append(report.Series, s)
		if r.setup == nil {
			fmt.Fprintf(log, "  %-20s m=%d  %6d wire bytes\n", s.Name, s.GroupSize, s.WireBytes)
			continue
		}
		fmt.Fprintf(log, "  %-20s m=%d  %10.0f ns/op %4d allocs/op  per %d ops: %7d verifies %7d candidates %5d index accesses\n",
			s.Name, s.GroupSize, s.NsPerOp, s.AllocsPerOp, replayOps, s.TileVerifies, s.CandidatesChecked, s.IndexAccesses)
	}
	return report, nil
}

// jsonBenchGroup returns a deterministic clustered group of m users with
// headings, centered mid-domain.
func jsonBenchGroup(m int) ([]geom.Point, []core.Direction) {
	users := make([]geom.Point, m)
	dirs := make([]core.Direction, m)
	for i := range users {
		users[i] = geom.Pt(0.5+0.01*float64(i), 0.5-0.008*float64(i))
		dirs[i] = core.Direction{Angle: 0.3 * float64(i)}
	}
	return users, dirs
}

// A stream fills locs with the group's locations at op i.
type stream func(locs, users []geom.Point, i int)

// jitter is the in-region stream every steady-state series shares: op i
// moves every member by 1e-5·(i mod 7) along (+1, −1).
func jitter(locs, users []geom.Point, i int) {
	d := 1e-5 * float64(i%7)
	for j, u := range users {
		locs[j] = geom.Pt(u.X+d, u.Y-d)
	}
}

// escape is the oscillation stream: on every odd op member 0 steps amp
// along (+1, −1), just out of its region (see probeEscapeAmp).
func escape(amp float64) stream {
	return func(locs, users []geom.Point, i int) {
		copy(locs, users)
		if i%2 == 1 {
			locs[0] = geom.Pt(users[0].X+amp, users[0].Y-amp)
		}
	}
}

// probeEscapeAmp finds, for group size m, the per-axis oscillation
// amplitude that takes user 0 just outside her safe region — the minimal
// escape report, the regime the dirty-user partial regrow accelerates.
// It computes the exact exit distance along the oscillation diagonal by
// binary search on the region boundary, then replays a short oscillation
// stream to report the outcome mix (escaping minimally keeps the result
// set stable, so the mix is typically partial-dominated; whatever it is,
// the log discloses it). Everything is deterministic, so the choice is
// stable across runs on the same workload.
func probeEscapeAmp(planner *core.Planner, m int) (amp float64, partialFrac float64) {
	users, dirs := jsonBenchGroup(m)
	replan := engine.PlannerKindIncFunc(planner, core.KindTiles, nil)
	ws := core.NewWorkspace()
	var st core.PlanState
	locs := make([]geom.Point, m)
	copy(locs, users)
	if _, _, _, _, err := replan(ws, &st, locs, dirs); err != nil {
		return 0.001, 0
	}
	region := st.Regions()[0]

	// Exit distance along (+1, −1): grow until outside, then bisect.
	at := func(a float64) geom.Point { return geom.Pt(users[0].X+a, users[0].Y-a) }
	hi := 1e-4
	for region.Contains(at(hi)) && hi < 1 {
		hi *= 2
	}
	lo := hi / 2
	for i := 0; i < 40; i++ {
		mid := (lo + hi) / 2
		if region.Contains(at(mid)) {
			lo = mid
		} else {
			hi = mid
		}
	}
	amp = hi * 1.05 // just past the boundary

	const steps = 16
	partial := 0
	for i := 0; i < steps; i++ {
		escape(amp)(locs, users, i)
		_, _, _, out, err := replan(ws, &st, locs, dirs)
		if err != nil {
			return amp, 0
		}
		if out == core.IncPartial {
			partial++
		}
	}
	return amp, float64(partial) / steps
}

// planOp returns an op that plans the group's tile regions over the
// jitter stream on one long-lived workspace, as an engine worker holds it.
func planOp(planner *core.Planner, users []geom.Point, dirs []core.Direction) func(int) (core.Stats, error) {
	ws := core.NewWorkspace()
	locs := make([]geom.Point, len(users))
	return func(i int) (core.Stats, error) {
		jitter(locs, users, i)
		p, _, err := planner.Plan(ws, core.PlanRequest{Kind: core.KindTiles, Users: locs, Dirs: dirs})
		return p.Stats, err
	}
}

// planRow times the planner kernel: one tile plan per op.
func planRow(name string, m int, planner *core.Planner) row {
	users, dirs := jsonBenchGroup(m)
	return row{name: name, m: m, setup: func() (fixture, error) {
		return fixture{op: planOp(planner, users, dirs)}, nil
	}}
}

// walMode says what an engine series journals to.
type walMode int

const (
	noWAL      walMode = iota
	walLocal           // a WAL at fsync=interval, the serving configuration
	walShipped         // that WAL, tailed by a live follower
)

// walM is the group size of the WAL and replication series.
const walM = 3

// updateRow times one synchronous engine.Update of the m-member group
// per op over move, with no subscribers: a full replan, or with inc the
// incremental protocol. Under a WAL mode the engine journals every
// committed plan as the server's journal adapter does.
func updateRow(name string, m int, planner *core.Planner, inc bool, move stream, mode walMode) row {
	users, dirs := jsonBenchGroup(m)
	return row{name: name, m: m, setup: func() (fixture, error) {
		var fx fixture
		opts := engine.Options{Shards: 1}
		if inc {
			opts.Replan = engine.PlannerKindIncFunc(planner, core.KindTiles, nil)
		}
		var w *benchWAL
		if mode != noWAL {
			var err error
			if w, err = openWAL(mode == walShipped); err != nil {
				return fixture{}, err
			}
			opts.Journal = durJournal{w.store}
			fx.drain = w.drain
		}
		eng := engine.NewWS(engine.PlannerKindWSFunc(planner, core.KindTiles, nil), opts)
		fx.close = func() {
			eng.Close()
			if w != nil {
				w.close()
			}
		}
		id, err := eng.RegisterTag(users, dirs, durTag{gid: 1, ids: memberIDs(m)})
		if err != nil {
			fx.close()
			return fixture{}, err
		}
		locs := make([]geom.Point, m)
		prev := eng.Stats(id)
		fx.op = func(i int) (core.Stats, error) {
			move(locs, users, i)
			if err := eng.Update(id, locs, dirs); err != nil {
				return core.Stats{}, err
			}
			if w != nil {
				w.pace(i)
			}
			cur := eng.Stats(id)
			d := core.Stats{
				TileVerifies:      cur.TileVerifies - prev.TileVerifies,
				CandidatesChecked: cur.CandidatesChecked - prev.CandidatesChecked,
				IndexAccesses:     cur.IndexAccesses - prev.IndexAccesses,
			}
			prev = cur
			return d, nil
		}
		return fx, nil
	}}
}

// recordRow times the WAL without the engine: one bare group record per
// op, through the store alone (walLocal: its sustained append-to-disk
// rate) or on to the follower (walShipped: how fast a follower's lag
// drains).
func recordRow(name string, mode walMode) row {
	users, _ := jsonBenchGroup(walM)
	ids := memberIDs(walM)
	return row{name: name, m: walM, setup: func() (fixture, error) {
		w, err := openWAL(mode == walShipped)
		if err != nil {
			return fixture{}, err
		}
		return fixture{
			op: func(i int) (core.Stats, error) {
				w.store.GroupUpsert(uint32(i&63), ids, users)
				w.pace(i)
				return core.Stats{}, nil
			},
			drain: w.drain,
			close: w.close,
		}, nil
	}}
}

// durTag is the engine tag updateRow registers its group with — the
// same shape a serving layer uses: group id plus the member ids the
// journaled locations align with.
type durTag struct {
	gid uint32
	ids []uint32
}

// memberIDs returns the member ids 0…m−1 a group's records carry.
func memberIDs(m int) []uint32 {
	ids := make([]uint32, m)
	for j := range ids {
		ids[j] = uint32(j)
	}
	return ids
}

// durJournal bridges engine.Journal to a durable.Store, as the server's
// journal adapter does.
type durJournal struct{ store *durable.Store }

func (j durJournal) GroupCommitted(tag any, users []geom.Point, _ []core.Direction) {
	dt := tag.(durTag)
	j.store.GroupUpsert(dt.gid, dt.ids, users)
}

func (j durJournal) GroupRemoved(tag any) {
	if dt, ok := tag.(durTag); ok {
		j.store.GroupUnregister(dt.gid)
	}
}

// walWindow is how many records a WAL series lets the writer, and the
// follower, fall behind the producer.
const walWindow = 1 << 11

// benchWAL is a fresh WAL in a temp dir at fsync=interval, optionally
// tailed by a follower: a replica.Shipper serving the store's record
// stream over loopback TCP to a Tailer folding it into a bare state
// mirror — the standby's data path minus the engine replay.
type benchWAL struct {
	store *durable.Store
	tl    *replica.Tailer // nil without a follower
	close func()
}

func openWAL(follower bool) (*benchWAL, error) {
	dir, err := os.MkdirTemp("", "mpnbench-wal-*")
	if err != nil {
		return nil, err
	}
	store, _, _, err := durable.Open(durable.Config{
		Dir: dir, Fsync: durable.PolicyInterval, Queue: 8 * walWindow, POIBase: -1,
	})
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	w := &benchWAL{store: store, close: func() {
		store.Close()
		os.RemoveAll(dir)
	}}
	if !follower {
		return w, nil
	}
	ship := replica.NewShipper(replica.ShipperConfig{
		Store:  store,
		Epoch:  func() uint64 { return 1 },
		Buffer: 1 << 15,
	})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		w.close()
		return nil, err
	}
	go ship.Serve(ln)
	mirror := durable.NewState()
	w.tl = replica.StartTailer(replica.TailerConfig{
		PrimaryAddr:  ln.Addr().String(),
		Epoch:        func() uint64 { return 0 },
		OnRecord:     mirror.ApplyRecord,
		RetryBackoff: 5 * time.Millisecond,
		AckInterval:  2 * time.Millisecond,
	})
	closeStore := w.close
	w.close = func() {
		w.tl.Stop()
		ship.Close()
		closeStore()
	}
	for deadline := time.Now().Add(5 * time.Second); !w.tl.Stats().Connected; {
		if time.Now().After(deadline) {
			w.close()
			return nil, fmt.Errorf("replication follower never connected")
		}
		time.Sleep(100 * time.Microsecond)
	}
	return w, nil
}

// pace holds the producer, every walWindow-th op, until the writer has
// appended (or shed) all but the last window of records and the follower
// has applied all but the last window of the stream. A series then prices
// sustained writing and shipping: an unpaced enqueue loop overruns any
// writer and prices the shed path, and an overrun follower is cut and
// prices reseeds.
func (w *benchWAL) pace(i int) {
	if i%walWindow != walWindow-1 || i < walWindow {
		return
	}
	floor := uint64(i - walWindow)
	for {
		st := w.store.Stats()
		if st.Appended+st.Shed >= floor && (w.tl == nil || w.store.StreamPos() <= w.tl.Stats().Pos+walWindow) {
			return
		}
		time.Sleep(20 * time.Microsecond)
	}
}

// drain waits until every queued record is on disk (the store's clean
// close drains the queue and fsyncs the tail) or, with a follower, until
// the follower has applied everything the store streamed and the stream
// position is quiescent.
func (w *benchWAL) drain() {
	if w.tl == nil {
		w.store.Close()
		return
	}
	for {
		sp := w.store.StreamPos()
		if w.tl.Stats().Pos >= sp {
			// Settle: records still in the store queue haven't reached
			// the mirror yet; only a stable position means drained.
			time.Sleep(200 * time.Microsecond)
			if sp2 := w.store.StreamPos(); sp2 == sp && w.tl.Stats().Pos >= sp2 {
				return
			}
			continue
		}
		time.Sleep(50 * time.Microsecond)
	}
}

// notifyRows returns the notification series at group size m for one
// kept-path recomputation fanned out to all m members: its wire size and
// its serialization cost under the full protocol (every region
// re-encoded into a TNotify per member) and the delta protocol (one
// region compare per member; an unchanged region ships a region-less
// TNotifyDelta and is never re-encoded). Every frame carries epoch 1, the
// coordinator's epoch for a member's first region.
func notifyRows(planner *core.Planner, m int, log io.Writer) ([]row, error) {
	users, dirs := jsonBenchGroup(m)
	ws := core.NewWorkspace()
	var st core.PlanState
	replan := engine.PlannerKindIncFunc(planner, core.KindTiles, nil)
	locs := append([]geom.Point(nil), users...)
	_, delivered, _, _, err := replan(ws, &st, locs, dirs)
	if err != nil {
		return nil, err
	}
	// One kept-path step: in-region jitter, result set unchanged.
	for j, u := range users {
		locs[j] = geom.Pt(u.X+1e-6, u.Y-1e-6)
	}
	meeting, regions, _, outcome, err := replan(ws, &st, locs, dirs)
	if err != nil {
		return nil, err
	}
	if outcome != core.IncKept {
		fmt.Fprintf(log, "  notify m=%d: jitter step was %v, not kept; series measures that outcome\n", m, outcome)
	}
	const epoch = 1

	full := func(buf []byte) ([]byte, error) {
		var err error
		for j, r := range regions {
			msg := proto.Message{
				Type: proto.TNotify, Group: 1, User: uint32(j),
				Meeting: meeting, Epoch: epoch, Region: proto.EncodeRegion(r),
			}
			if buf, err = msg.AppendFrame(buf); err != nil {
				return nil, err
			}
		}
		return buf, nil
	}
	delta := func(buf []byte) ([]byte, error) {
		var err error
		for j := range regions {
			msg := proto.Message{Type: proto.TNotifyDelta, Group: 1, User: uint32(j), Epoch: epoch}
			if !regions[j].Equal(delivered[j]) {
				msg.Region = proto.EncodeRegion(regions[j])
			}
			if buf, err = msg.AppendFrame(buf); err != nil {
				return nil, err
			}
		}
		return buf, nil
	}
	encode := func(name string, round func([]byte) ([]byte, error)) row {
		return row{name: name, m: m, setup: func() (fixture, error) {
			var buf []byte
			return fixture{op: func(int) (core.Stats, error) {
				var err error
				buf, err = round(buf[:0])
				return core.Stats{}, err
			}}, nil
		}}
	}
	fullRound, err := full(nil)
	if err != nil {
		return nil, err
	}
	deltaRound, err := delta(nil)
	if err != nil {
		return nil, err
	}
	return []row{
		{name: "notify_bytes_full", m: m, wire: int64(len(fullRound))},
		{name: "notify_bytes_delta", m: m, wire: int64(len(deltaRound))},
		encode("notify_encode_full", full),
		encode("notify_encode_delta", delta),
	}, nil
}

// Churn workload shape: one group of churnM members planning in place
// mid-domain while localized mutation batches land in the far corner —
// every churnEvery-th plan is preceded by a batch of churnOps mutations
// (half inserts on a lattice around (0.9, 0.9), half deletes of the
// oldest surviving churn inserts once enough have accumulated, so the
// live set stays bounded). The mutations sit far outside the group's
// neighborhood.
const (
	churnM     = 3
	churnEvery = 8
	churnOps   = 8
)

// churnState drives the deterministic mutation stream: a monotone
// counter places inserts on the far-corner lattice, and pending queues
// the inserted ids until they are old enough to delete. The slices are
// reused, so a steady-state batch allocates only inside ApplyPOIs.
type churnState struct {
	ins     []geom.Point
	del     []int
	pending []int
	n       int
}

// batch applies one churn batch to the planner.
func (c *churnState) batch(planner *core.Planner) error {
	c.ins = c.ins[:0]
	for j := 0; j < churnOps/2; j++ {
		c.n++
		c.ins = append(c.ins, geom.Pt(
			0.88+0.0005*float64(c.n%89),
			0.90+0.0004*float64(c.n%97)))
	}
	c.del = c.del[:0]
	if len(c.pending) >= 8*churnOps {
		c.del = append(c.del, c.pending[:churnOps/2]...)
		rest := copy(c.pending, c.pending[churnOps/2:])
		c.pending = c.pending[:rest]
	}
	ids, err := planner.ApplyPOIs(c.ins, c.del)
	if err != nil {
		return err
	}
	c.pending = append(c.pending, ids...)
	return nil
}

// churnRows returns the planning-under-live-POI-churn series, each setup
// on a fresh planner over the same POIs so churn never perturbs the
// shared planner the other series measure. churn_plan is the planner
// kernel with a mutation batch landing before every churnEvery-th plan.
// churn_mutate is the ApplyPOIs batch itself: the full RCU publication —
// reader drain, shadow catch-up, batched R-tree insert/delete, tombstone
// re-publication and the atomic snapshot swap.
func churnRows(pois []geom.Point, opts core.Options) []row {
	users, dirs := jsonBenchGroup(churnM)
	churnRow := func(name string, plan bool) row {
		return row{name: name, m: churnM, setup: func() (fixture, error) {
			planner, err := core.NewPlanner(pois, opts)
			if err != nil {
				return fixture{}, err
			}
			var st churnState
			if !plan {
				return fixture{op: func(int) (core.Stats, error) { return core.Stats{}, st.batch(planner) }}, nil
			}
			planOnce := planOp(planner, users, dirs)
			return fixture{op: func(i int) (core.Stats, error) {
				if i%churnEvery == churnEvery-1 {
					if err := st.batch(planner); err != nil {
						return core.Stats{}, err
					}
				}
				return planOnce(i)
			}}, nil
		}}
	}
	return []row{churnRow("churn_plan", true), churnRow("churn_mutate", false)}
}

// netBenchFleet draws the net series' fixture the way bench/'s net_road
// movers are drawn: seeded groups of m members who each start at an
// independent random junction and walk mobility.NetworkTrajectory routes
// at the paper's default speed, so a group's members sit half a city
// apart (one hand-picked cluster hid a 10× slower plan). Op i of a
// series plans group i mod groups.
func netBenchFleet(netw *roadnet.Network, groups, m, steps int) ([][]mobility.Trajectory, error) {
	rng := rand.New(rand.NewSource(1))
	fleet := make([][]mobility.Trajectory, groups)
	for g := range fleet {
		fleet[g] = make([]mobility.Trajectory, m)
		for j := range fleet[g] {
			cfg := mobility.DefaultNetworkConfig()
			cfg.Steps, cfg.Seed = steps, rng.Int63()
			var err error
			if fleet[g][j], err = mobility.NetworkTrajectory(netw, cfg); err != nil {
				return nil, err
			}
		}
	}
	return fleet, nil
}

// netRows returns the road-network backend series at the default network
// size over the netBenchFleet stream: net_plan_naive (the per-member
// full-SSSP oracle the paper's network variant starts from), net_plan
// (the production backend through the core dispatch — the exact top-2
// read from the POI distance table, see internal/netmpn's differential
// fences) and net_update_inc (the incremental kept/partial protocol, each
// group advancing one timestamp every fourth visit: the coalesced-burst
// regime of identical repeats the kept path accelerates).
func netRows() ([]row, error) {
	const (
		netM        = 3
		netPOIEvery = 9
		netGroups   = 32
		netSteps    = 512
	)
	netw, err := roadnet.Generate(roadnet.DefaultConfig())
	if err != nil {
		return nil, err
	}
	var poiNodes []int
	for i := 0; i < netw.NumNodes(); i += netPOIEvery {
		poiNodes = append(poiNodes, i)
	}
	pois := make([]geom.Point, len(poiNodes))
	for i, n := range poiNodes {
		pois[i] = netw.Nodes[n].P
	}
	planner, err := core.NewPlanner(pois, core.DefaultOptions())
	if err != nil {
		return nil, err
	}
	backend, err := netmpn.NewBackend(netw, poiNodes, netmpn.BackendConfig{Aggregate: netmpn.Max})
	if err != nil {
		return nil, err
	}
	planner.RegisterNetBackend(backend)
	fleet, err := netBenchFleet(netw, netGroups, netM, netSteps)
	if err != nil {
		return nil, err
	}
	// at fills locs with group g's positions at timestamp t.
	at := func(g, t int, locs []geom.Point) {
		for j, traj := range fleet[g] {
			locs[j] = traj[t%netSteps]
		}
	}
	netRow := func(name string, op func(locs []geom.Point) func(int) (core.Stats, error)) row {
		return row{name: name, m: netM, setup: func() (fixture, error) {
			return fixture{op: op(make([]geom.Point, netM))}, nil
		}}
	}
	return []row{
		// One full SSSP per member per plan, snapping included, as the
		// backend path snaps too.
		netRow("net_plan_naive", func(locs []geom.Point) func(int) (core.Stats, error) {
			pos := make([]netmpn.Position, netM)
			return func(i int) (core.Stats, error) {
				at(i%netGroups, i/netGroups, locs)
				for j, u := range locs {
					pos[j] = backend.Snap(u)
				}
				_, _, err := backend.Server().Plan(pos, netmpn.Max)
				return core.Stats{}, err
			}
		}),
		netRow("net_plan", func(locs []geom.Point) func(int) (core.Stats, error) {
			ws := core.NewWorkspace()
			return func(i int) (core.Stats, error) {
				at(i%netGroups, i/netGroups, locs)
				p, _, err := planner.Plan(ws, core.PlanRequest{Kind: core.KindNetRange, Users: locs})
				return p.Stats, err
			}
		}),
		netRow("net_update_inc", func(locs []geom.Point) func(int) (core.Stats, error) {
			ws := core.NewWorkspace()
			states := make([]core.PlanState, netGroups)
			return func(i int) (core.Stats, error) {
				g := i % netGroups
				at(g, i/netGroups/4, locs)
				p, _, err := planner.Plan(ws, core.PlanRequest{Kind: core.KindNetRange, Users: locs, State: &states[g]})
				return p.Stats, err
			}
		}),
	}, nil
}
