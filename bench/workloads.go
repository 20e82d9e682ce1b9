package main

import (
	"mpn/internal/core"
	"mpn/internal/gnn"
	"mpn/internal/workload"
)

// serverPOISeed is mpnserver's default -seed: the benchmark regenerates
// the server's POI set from it so the oracle can check answers.
const serverPOISeed = 42

// spec is one workload: the server configuration, the resident fleet and
// the per-group op quotas. Quotas are op counts, never durations, so the
// count-valued metrics repeat exactly for a seed.
type spec struct {
	name  string
	flags []string // mpnserver flags beyond -listen/-shards/-workers

	m      int // members per group
	groups int // resident fleet
	warm   int // untimed ops per group
	timed  int // timed ops per group

	// passSeconds is about how long one pass takes on the reference box;
	// a run plans seconds/passSeconds passes.
	passSeconds float64

	// Planner configuration, mirrored for the oracle and the layer replay.
	net         bool
	kind        core.RegionKind
	agg         gnn.Aggregate
	pois        int
	alpha       int
	buffer      int
	directed    bool
	incremental bool
	cacheBytes  int64

	durable bool // -state-dir/-replicate-to with an in-bench follower

	// join_storm: sessions run on top of the idle resident fleet.
	warmSessions  int
	timedSessions int
	sessionSteps  int
}

// specs are the five workloads; BENCHMARK.json and bench/README.md say
// why each is here. α = 30 and b = 100 are the server's defaults.
var specs = []spec{
	{
		// Tiled incremental planning over 21,287 POIs: internal/core does
		// nearly all the work.
		name:  "euclid_tile",
		flags: []string{"-method", "tiled", "-agg", "max", "-incremental", "-gnncache", "8388608"},
		m:     3, groups: 64, warm: 1, timed: 3, passSeconds: 3,
		kind: core.KindTiles, agg: gnn.Max, pois: workload.DefaultPOICount,
		alpha: 30, buffer: 100, directed: true, incremental: true, cacheBytes: 8388608,
	},
	{
		// Road-network planning with network movers; the Euclidean tile
		// path is bypassed.
		name:  "net_road",
		flags: []string{"-method", "net", "-agg", "max", "-incremental"},
		m:     3, groups: 192, warm: 1, timed: 8, passSeconds: 2.25,
		net: true, kind: core.KindNetRange, agg: gnn.Max, incremental: true,
	},
	{
		// Circle planning is nearly free: framing, the probe round, engine
		// dispatch and socket writes are the cost.
		name:  "wire_circle",
		flags: []string{"-method", "circle", "-agg", "sum", "-incremental", "-n", "2000"},
		m:     2, groups: 256, warm: 2, timed: 20, passSeconds: 1.5,
		kind: core.KindCircle, agg: gnn.Sum, pois: 2000, alpha: 30, buffer: 100, incremental: true,
	},
	{
		// wire_circle's traffic with the WAL on and an in-bench follower
		// tailing it (runPass adds -state-dir and -replicate-to).
		name:  "durable_ship",
		flags: []string{"-method", "circle", "-agg", "sum", "-incremental", "-n", "2000", "-fsync", "interval"},
		m:     2, groups: 256, warm: 2, timed: 20, passSeconds: 1.8,
		kind: core.KindCircle, agg: gnn.Sum, pois: 2000, alpha: 30, buffer: 100, incremental: true,
		durable: true,
	},
	{
		// Default flags; sessions join, move and leave beside an idle
		// fleet.
		name: "join_storm",
		m:    3, groups: 16, passSeconds: 3,
		kind: core.KindTiles, agg: gnn.Max, pois: workload.DefaultPOICount,
		alpha: 30, buffer: 100, directed: true,
		warmSessions: 2, timedSessions: 52, sessionSteps: 8,
	},
}

func specByName(name string) (spec, bool) {
	for _, s := range specs {
		if s.name == name {
			return s, true
		}
	}
	return spec{}, false
}

// metricDef names one reported metric; BENCHMARK.json carries the same
// list (the smoke test compares them).
type metricDef struct {
	name string
	unit string
}

var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"notify_p50_ms", "ms"},
	{"notify_p90_ms", "ms"},
	{"ops_per_s", "1/s"},
	{"cpu_ms_per_op", "ms"},
	{"wire_bytes_per_op", "B"},
	{"ops_per_kts", "1/1000"},
	{"rss_peak_mb", "MB"},
}

var perLayer = []metricDef{
	{"proto.probe_fanout_us_p50", "us"},
	{"loadgen.probe_reply_us_p50", "us"},
	{"server.replan_us_p50", "us"},
	{"server.replan_us_p90", "us"},
	{"proto.notify_fanout_us_p50", "us"},
	{"proto.delta_frame_share", "ratio"},
	{"proto.unchanged_frame_share", "ratio"},
	{"proto.notify_bytes_p50", "B"},
	{"proto.join_us_p50", "us"},
	{"core.plan_us_p50", "us"},
	{"core.plan_us_p90", "us"},
	{"core.plan_full_us_p50", "us"},
	{"core.kept_share", "ratio"},
	{"core.partial_share", "ratio"},
	{"core.full_share", "ratio"},
	{"core.tile_verifies_per_plan", "count"},
	{"core.tile_accept_share", "ratio"},
	{"core.index_accesses_per_plan", "count"},
	{"core.allocs_per_plan", "count"},
	{"gnn.topk_us_p50", "us"},
	{"rtree.build_ms", "ms"},
	{"nbrcache.hit_share", "ratio"},
	{"nbrcache.stale_share", "ratio"},
	{"netmpn.plan_us_p50", "us"},
	{"netmpn.plan_us_p90", "us"},
	{"netmpn.kept_share", "ratio"},
	{"netmpn.allocs_per_plan", "count"},
	{"netmpn.backend_build_ms", "ms"},
	{"engine.register_us_p50", "us"},
	{"engine.update_us_p50", "us"},
	{"engine.submit_notify_us_p50", "us"},
	{"engine.shed", "count"},
	{"proto.region_encode_us_p50", "us"},
	{"proto.region_bytes_p50", "B"},
	{"proto.frame_encode_us_p50", "us"},
	{"proto.frame_decode_us_p50", "us"},
	{"proto.coord_report_us_p50", "us"},
	{"durable.upsert_us_p50", "us"},
	{"durable.bytes_per_record", "B"},
	{"durable.shed_share", "ratio"},
	{"durable.recover_ms", "ms"},
	{"replica.ship_bytes_per_op", "B"},
	{"replica.lag_ms_p90", "ms"},
	{"replica.records_missing", "count"},
	{"server.unattributed_share", "ratio"},
	{"trace.overhead_share", "ratio"},
	{"host.spin_ms", "ms"},
}
