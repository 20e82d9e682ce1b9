package main

import (
	"bytes"
	"errors"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"mpn/internal/core"
	"mpn/internal/durable"
	"mpn/internal/engine"
	"mpn/internal/geom"
	"mpn/internal/gnn"
	"mpn/internal/nbrcache"
	"mpn/internal/netmpn"
	"mpn/internal/proto"
	"mpn/internal/rtree"
	"mpn/internal/stats"
)

// runTraced produces the per-layer metrics of one workload: an untraced
// reference pass, a traced pass over the same inputs (the pair doubles as
// the determinism guard), the span file, and the in-process replay of the
// recorded request stream through each layer's public functions. A layer
// that is not on the workload's path reports 0.
func (b *bench) runTraced(sp spec, seed int64) (*result, error) {
	if b.overrides != nil {
		b.overrides(&sp)
	}
	w, err := newWorld(sp)
	if err != nil {
		return nil, err
	}
	in, err := w.makeInputs(sp, seed, 0)
	if err != nil {
		return nil, err
	}
	if !b.quiet {
		fmt.Printf("== %s (seed %d, traced)\n", sp.name, seed)
	}
	plain, err := b.pass(sp, in, false, false)
	if err != nil {
		return nil, err
	}
	traced, err := b.pass(sp, in, true, false)
	if err != nil {
		return nil, err
	}
	if traced.stateDir != "" {
		defer os.RemoveAll(traced.stateDir)
	}
	if traced.ops != plain.ops || traced.timestamps != plain.timestamps || traced.bytes != plain.bytes || traced.meetHash != plain.meetHash {
		return nil, fmt.Errorf("the traced pass did not repeat the untraced one: ops %d/%d, timestamps %d/%d, wire bytes %d/%d",
			traced.ops, plain.ops, traced.timestamps, plain.timestamps, traced.bytes, plain.bytes)
	}
	path, err := writeTrace(b.root, sp.name, traced.spans)
	if err != nil {
		return nil, err
	}

	m := map[string]float64{}
	spanMetrics(m, traced)
	if err := replayLayers(m, sp, b.root, traced); err != nil {
		return nil, err
	}
	if p := percentile(plain.latMs, 0.5); p > 0 {
		m["trace.overhead_share"] = percentile(traced.latMs, 0.5)/p - 1
	}
	m["host.spin_ms"] = stats.Median([]float64{plain.spinMs[0], plain.spinMs[1], traced.spinMs[0], traced.spinMs[1]})

	res := &result{
		Correct:   plain.failed+traced.failed == 0 && traced.recordsMissing == 0,
		Attempted: plain.ops + traced.ops,
		Failed:    plain.failed + traced.failed,
		Metrics:   map[string]value{},
	}
	for _, p := range []*passResult{plain, traced} {
		if p.firstErr != nil {
			fmt.Printf("  first failure: %v\n", p.firstErr)
		}
	}
	for _, d := range perLayer {
		res.Metrics[d.name] = value{m[d.name], d.unit}
		if !b.quiet {
			fmt.Printf("  %-32s %14.4f %s\n", d.name, m[d.name], d.unit)
		}
	}
	if !b.quiet {
		fmt.Printf("  %d spans of %d ops written to %s\n", len(traced.spans), traced.ops, path)
	}
	return res, nil
}

// spanMetrics derives the client-observed layer metrics from the traced
// pass: span percentiles and the counts taken at the same boundary.
func spanMetrics(m map[string]float64, p *passResult) {
	m["proto.probe_fanout_us_p50"] = percentile(spanUs(p.spans, "proto.probe_fanout"), 0.5)
	m["loadgen.probe_reply_us_p50"] = percentile(spanUs(p.spans, "loadgen.probe_reply"), 0.5)
	replan := spanUs(p.spans, "server.replan")
	m["server.replan_us_p50"] = percentile(replan, 0.5)
	m["server.replan_us_p90"] = percentile(replan, 0.9)
	m["proto.notify_fanout_us_p50"] = percentile(spanUs(p.spans, "proto.notify_fanout"), 0.5)
	m["proto.join_us_p50"] = percentile(spanUs(p.spans, "op.join"), 0.5)

	var delta, unchanged float64
	var sizes []float64
	for _, f := range p.frames {
		if f.kind != 'F' {
			delta++
		}
		if f.kind == 'U' {
			unchanged++
		}
		sizes = append(sizes, float64(f.bytes))
	}
	if n := float64(len(p.frames)); n > 0 {
		m["proto.delta_frame_share"] = delta / n
		m["proto.unchanged_frame_share"] = unchanged / n
	}
	m["proto.notify_bytes_p50"] = percentile(sizes, 0.5)

	m["replica.records_missing"] = float64(p.recordsMissing)
	if p.ops > 0 {
		m["replica.ship_bytes_per_op"] = float64(p.shipBytes) / float64(p.ops)
	}
	m["replica.lag_ms_p90"] = percentile(p.lagMs, 0.9)
}

// since returns the microseconds elapsed since t.
func since(t time.Time) float64 { return float64(time.Since(t).Nanoseconds()) / 1e3 }

// planReplay is what replaying the request stream through Planner.Plan
// measured.
type planReplay struct {
	us                    []float64
	kept, partial, full   float64
	verifies, accepted    float64
	rejected, indexAccess float64
	allocs                float64
	regions               []core.SafeRegion // a bounded sample, for the proto replay
	meeting               geom.Point
}

// isOp tells the requests that were ops from the resident fleet's
// registrations, which precede them in the stream.
func isOp(sp spec, i int) bool { return i >= sp.groups }

// replayPlans feeds the stream to the planner the way the server's
// engine does: one retained PlanState per group on an incremental
// server, from scratch otherwise (or always, with forceFull).
func replayPlans(pl *core.Planner, sp spec, cache *nbrcache.Cache, reqs []request, forceFull bool) (planReplay, error) {
	var out planReplay
	ws := core.NewWorkspace()
	states := map[uint32]*core.PlanState{}
	var before, after runtime.MemStats
	ops := 0.0
	for i, r := range reqs {
		if i == sp.groups {
			runtime.ReadMemStats(&before)
		}
		var st *core.PlanState
		if sp.incremental && !forceFull {
			if st = states[r.gid]; st == nil {
				st = new(core.PlanState)
				states[r.gid] = st
			}
		}
		t0 := time.Now()
		plan, outcome, err := pl.Plan(ws, core.PlanRequest{Kind: sp.kind, Users: r.users, Cache: cache, State: st})
		dt := since(t0)
		if err != nil {
			return out, fmt.Errorf("replaying request %d: %w", i, err)
		}
		if !isOp(sp, i) {
			continue
		}
		ops++
		out.us = append(out.us, dt)
		switch outcome {
		case core.IncKept:
			out.kept++
		case core.IncPartial:
			out.partial++
		default:
			out.full++
		}
		out.verifies += float64(plan.Stats.TileVerifies)
		out.accepted += float64(plan.Stats.TilesAccepted)
		out.rejected += float64(plan.Stats.TilesRejected)
		out.indexAccess += float64(plan.Stats.IndexAccesses)
		if len(out.regions) < 1024 {
			out.regions = append(out.regions, plan.Regions...)
			out.meeting = plan.Best.Item.P
		}
	}
	runtime.ReadMemStats(&after)
	if ops > 0 {
		out.allocs = float64(after.Mallocs-before.Mallocs) / ops
		out.kept /= ops
		out.partial /= ops
		out.full /= ops
		out.verifies /= ops
		out.indexAccess /= ops
	}
	return out, nil
}

// replayLayers replays the traced pass's request stream in process
// through core (or netmpn), gnn, rtree, nbrcache, engine, proto and
// durable, under the workload's own options.
func replayLayers(m map[string]float64, sp spec, root string, p *passResult) error {
	reqs := p.requests
	opts := core.DefaultOptions()
	opts.Aggregate = sp.agg
	opts.TileLimit, opts.Buffer, opts.Directed = sp.alpha, sp.buffer, sp.directed

	var pl *core.Planner
	var cache *nbrcache.Cache
	var plans planReplay
	if sp.net {
		netw, poiNodes, cfg, err := roadWorld(sp)
		if err != nil {
			return err
		}
		t0 := time.Now()
		backend, err := netmpn.NewBackend(netw, poiNodes, cfg)
		if err != nil {
			return err
		}
		m["netmpn.backend_build_ms"] = since(t0) / 1e3
		pois := make([]geom.Point, len(poiNodes))
		for i, n := range poiNodes {
			pois[i] = netw.Nodes[n].P
		}
		if pl, err = core.NewPlanner(pois, opts); err != nil {
			return err
		}
		pl.RegisterNetBackend(backend)
		if plans, err = replayPlans(pl, sp, nil, reqs, false); err != nil {
			return err
		}
		m["netmpn.plan_us_p50"] = percentile(plans.us, 0.5)
		m["netmpn.plan_us_p90"] = percentile(plans.us, 0.9)
		m["netmpn.kept_share"] = plans.kept
		m["netmpn.allocs_per_plan"] = plans.allocs
	} else {
		pois, err := serverPOIs(sp)
		if err != nil {
			return err
		}
		items := make([]rtree.Item, len(pois))
		for i, pt := range pois {
			items[i] = rtree.Item{P: pt, ID: i}
		}
		var builds []float64
		for i := 0; i < 3; i++ {
			t0 := time.Now()
			rtree.Bulk(append([]rtree.Item(nil), items...), rtree.DefaultMaxEntries)
			builds = append(builds, since(t0)/1e3)
		}
		m["rtree.build_ms"] = stats.Median(builds)
		if pl, err = core.NewPlanner(pois, opts); err != nil {
			return err
		}
		if sp.cacheBytes > 0 {
			cache = nbrcache.New(nbrcache.Config{MaxBytes: sp.cacheBytes})
		}
		if plans, err = replayPlans(pl, sp, cache, reqs, false); err != nil {
			return err
		}
		m["core.plan_us_p50"] = percentile(plans.us, 0.5)
		m["core.plan_us_p90"] = percentile(plans.us, 0.9)
		m["core.kept_share"] = plans.kept
		m["core.partial_share"] = plans.partial
		m["core.full_share"] = plans.full
		m["core.tile_verifies_per_plan"] = plans.verifies
		if t := plans.accepted + plans.rejected; t > 0 {
			m["core.tile_accept_share"] = plans.accepted / t
		}
		m["core.index_accesses_per_plan"] = plans.indexAccess
		m["core.allocs_per_plan"] = plans.allocs
		if cache != nil {
			cs := cache.Stats()
			if lookups := float64(cs.Hits + cs.Misses + cs.Rejected); lookups > 0 {
				m["nbrcache.hit_share"] = float64(cs.Hits) / lookups
				m["nbrcache.stale_share"] = float64(cs.Stale) / lookups
			}
		}
		full, err := replayPlans(pl, sp, cache, reqs, true)
		if err != nil {
			return err
		}
		m["core.plan_full_us_p50"] = percentile(full.us, 0.5)

		snap := pl.Acquire()
		var scratch gnn.Scratch
		var topk []float64
		buf := make([]gnn.Result, 0, max(2, sp.buffer))
		for i, r := range reqs {
			t0 := time.Now()
			buf = gnn.TopKInto(snap.Tree(), &scratch, r.users, sp.agg, max(2, sp.buffer), buf[:0])
			if isOp(sp, i) {
				topk = append(topk, since(t0))
			}
		}
		snap.Release()
		m["gnn.topk_us_p50"] = percentile(topk, 0.5)
	}

	engineUs, err := replayEngine(m, pl, sp, cache, reqs)
	if err != nil {
		return err
	}
	protoUs, err := replayProto(m, sp, plans)
	if err != nil {
		return err
	}
	durableUs := 0.0
	if sp.durable {
		if durableUs, err = replayDurable(m, sp, root, p.stateDir, reqs); err != nil {
			return err
		}
	}
	if replan := stats.Mean(spanUs(p.spans, "server.replan")); replan > 0 {
		m["server.unattributed_share"] = 1 - (engineUs+protoUs+durableUs)/replan
	}
	return nil
}

// replayEngine runs the stream through two engines built like the
// server's: one takes the synchronous path (RegisterTag, Update), the
// other the path reports take (SubmitTag, then the subscription
// delivers). It returns the mean submit→notify time of an op.
func replayEngine(m map[string]float64, pl *core.Planner, sp spec, cache *nbrcache.Cache, reqs []request) (float64, error) {
	newEngine := func() (*engine.Engine, *engine.Subscription) {
		eopts := engine.Options{Shards: 2, Workers: 1}
		if sp.incremental {
			eopts.Replan = engine.PlannerKindIncFunc(pl, sp.kind, cache)
		}
		e := engine.NewWS(engine.PlannerKindWSFunc(pl, sp.kind, cache), eopts)
		// One notification is outstanding at a time; the buffer only has
		// to outlast the synchronous emit.
		return e, e.Subscribe(8)
	}
	var register, update, submit []float64

	direct, directSub := newEngine()
	ids := map[uint32]engine.GroupID{}
	for _, r := range reqs {
		id, known := ids[r.gid]
		t0 := time.Now()
		if !known {
			var err error
			if id, err = direct.RegisterTag(r.users, nil, r.gid); err != nil {
				direct.Close()
				return 0, err
			}
			ids[r.gid] = id
			register = append(register, since(t0))
		} else {
			if err := direct.Update(id, r.users, nil); err != nil {
				direct.Close()
				return 0, err
			}
			update = append(update, since(t0))
		}
		<-directSub.C
	}
	direct.Close()

	queued, queuedSub := newEngine()
	defer queued.Close()
	ids = map[uint32]engine.GroupID{}
	for _, r := range reqs {
		id, known := ids[r.gid]
		if !known {
			var err error
			if id, err = queued.RegisterTag(r.users, nil, r.gid); err != nil {
				return 0, err
			}
			ids[r.gid] = id
			<-queuedSub.C
			continue
		}
		t0 := time.Now()
		if err := queued.SubmitTag(id, r.users, nil, r.gid); err != nil {
			return 0, err
		}
		n := <-queuedSub.C
		submit = append(submit, since(t0))
		if n.Err != nil {
			return 0, n.Err
		}
	}
	m["engine.register_us_p50"] = percentile(register, 0.5)
	m["engine.update_us_p50"] = percentile(update, 0.5)
	m["engine.submit_notify_us_p50"] = percentile(submit, 0.5)
	m["engine.shed"] = float64(queued.Shed())
	return stats.Mean(submit), nil
}

// replayProto times the wire layer on the regions the plan replay
// produced: region encoding, frame encode and decode, and a whole report
// round through a Coordinator over net.Pipe whose SubmitFunc answers at
// once. It returns the mean encode cost of one op's notifications.
func replayProto(m map[string]float64, sp spec, plans planReplay) (float64, error) {
	if len(plans.regions) < 2*sp.m {
		return 0, errors.New("the plan replay produced too few regions for the proto replay")
	}
	var encode, size, frameEnc, frameDec []float64
	var buf []byte
	for i, r := range plans.regions {
		t0 := time.Now()
		data := proto.EncodeRegion(r)
		encode = append(encode, since(t0))
		size = append(size, float64(len(data)))

		msg := proto.Message{Type: proto.TNotify, Group: 1, User: uint32(i%sp.m + 1), Meeting: plans.meeting, Epoch: uint64(i + 1), Region: data}
		t0 = time.Now()
		var err error
		buf, err = msg.AppendFrame(buf[:0])
		frameEnc = append(frameEnc, since(t0))
		if err != nil {
			return 0, err
		}
		t0 = time.Now()
		_, err = proto.Read(bytes.NewReader(buf))
		frameDec = append(frameDec, since(t0))
		if err != nil {
			return 0, err
		}
	}
	m["proto.region_encode_us_p50"] = percentile(encode, 0.5)
	m["proto.region_bytes_p50"] = percentile(size, 0.5)
	m["proto.frame_encode_us_p50"] = percentile(frameEnc, 0.5)
	m["proto.frame_decode_us_p50"] = percentile(frameDec, 0.5)

	// Two alternating plans, so every report changes every region.
	canned := [2][]core.SafeRegion{plans.regions[:sp.m], plans.regions[sp.m : 2*sp.m]}
	round := 0
	coord := proto.NewAsyncCoordinator(func(uint32, []uint32, []geom.Point) (geom.Point, []core.SafeRegion, []uint64, bool) {
		round++
		return plans.meeting, canned[round%2], nil, true
	}, nil)
	notified := make(chan struct{}, 2*sp.m)
	clients := make([]*proto.Client, sp.m)
	var ends []net.Conn
	for i := range clients {
		a, z := net.Pipe()
		ends = append(ends, a, z)
		go func() { _ = coord.ServeConn(z) }() // ends when its pipe closes
		cl, err := proto.NewClient(a, 1, uint32(i+1),
			func() geom.Point { return plans.meeting },
			func(geom.Point, core.SafeRegion) { notified <- struct{}{} })
		if err != nil {
			return 0, err
		}
		clients[i] = cl
		go func() { _ = cl.Run() }() // ends when its pipe closes
	}
	defer func() {
		for _, c := range ends {
			c.Close()
		}
	}()
	await := func() error {
		for range clients {
			select {
			case <-notified:
			case <-time.After(opTimeout):
				return errors.New("the pipe coordinator did not notify")
			}
		}
		return nil
	}
	for _, cl := range clients {
		if err := cl.Register(uint32(sp.m)); err != nil {
			return 0, err
		}
	}
	if err := await(); err != nil {
		return 0, err
	}
	var report []float64
	for i := 0; i < 300; i++ {
		t0 := time.Now()
		if err := clients[0].Report(); err != nil {
			return 0, err
		}
		if err := await(); err != nil {
			return 0, err
		}
		report = append(report, since(t0))
	}
	m["proto.coord_report_us_p50"] = percentile(report, 0.5)

	carrying := 1 - m["proto.unchanged_frame_share"]
	return float64(sp.m) * (stats.Mean(frameEnc) + carrying*stats.Mean(encode)), nil
}

// replayDurable times recovery of the directory the traced pass's server
// left behind, then journals the stream into a fresh store. It returns
// the mean cost of one upsert on the planning path.
func replayDurable(m map[string]float64, sp spec, root, left string, reqs []request) (float64, error) {
	t0 := time.Now()
	st, _, _, err := durable.Open(durable.Config{Dir: left, POIBase: sp.pois})
	if err != nil {
		return 0, fmt.Errorf("recovering %s: %w", left, err)
	}
	m["durable.recover_ms"] = since(t0) / 1e3
	if err := st.Close(); err != nil {
		return 0, err
	}

	dir, err := os.MkdirTemp(filepath.Join(root, "bench", "out"), "replay-")
	if err != nil {
		return 0, err
	}
	defer os.RemoveAll(dir)
	store, _, _, err := durable.Open(durable.Config{Dir: dir, POIBase: sp.pois})
	if err != nil {
		return 0, err
	}
	ids := make([]uint32, sp.m)
	for i := range ids {
		ids[i] = uint32(i + 1)
	}
	var upsert []float64
	for i, r := range reqs {
		t0 := time.Now()
		store.GroupUpsert(r.gid, ids, r.users)
		upsert = append(upsert, since(t0))
		// The server journals one record per op, milliseconds apart; let
		// the writer drain so the replay does not shed what it never would.
		for i%256 == 255 {
			if s := store.Stats(); s.Appended+s.Shed > uint64(i) {
				break
			}
			time.Sleep(100 * time.Microsecond)
		}
	}
	if err := store.Close(); err != nil {
		return 0, err
	}
	wal := store.Stats()
	if total := wal.Appended + wal.Shed; total > 0 {
		m["durable.shed_share"] = float64(wal.Shed) / float64(total)
	}
	var onDisk int64
	entries, err := os.ReadDir(dir)
	if err != nil {
		return 0, err
	}
	for _, e := range entries {
		if info, err := e.Info(); err == nil {
			onDisk += info.Size()
		}
	}
	if wal.Appended > 0 {
		m["durable.bytes_per_record"] = float64(onDisk) / float64(wal.Appended)
	}
	m["durable.upsert_us_p50"] = percentile(upsert, 0.5)
	return stats.Mean(upsert), nil
}
