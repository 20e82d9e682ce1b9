// Package benchfmt defines the machine-readable benchmark report format
// shared by its producer (cmd/mpnbench -json, committed as
// BENCH_plan.json) and its consumer (cmd/benchgate), so the schema
// cannot silently drift between the two: a field rename that decoded to
// a zero value on one side would otherwise disable the gate for that
// field without any error.
package benchfmt

// Series is one benchmark series: a named measurement at one group size.
type Series struct {
	// Name identifies the measured path, one op per iteration:
	//   - "plan": a tile plan on an owned workspace, the planner kernel;
	//   - "update": a synchronous engine update that replans in full;
	//   - "update_inc": the incremental engine under in-region jitter,
	//     the kept-plan fast path;
	//   - "update_escape", "update_inc_escape": member 0 oscillating
	//     just out of its region, full-replan vs incremental engine;
	//   - "notify_encode_full", "notify_encode_delta": serializing one
	//     kept-path notification round to all m members, full frames vs
	//     the delta protocol;
	//   - "notify_bytes_full", "notify_bytes_delta": WireBytes only, the
	//     wire size of that same round;
	//   - "churn_plan": the planner kernel with a localized POI mutation
	//     batch landing every few plans; "churn_mutate": one batched
	//     ApplyPOIs publication;
	//   - "durable_update": update_inc with the WAL journal attached;
	//     "wal_append": one group record through the store alone;
	//   - "repl_ship": durable_update with a live follower tailing the
	//     record stream; "repl_lag": one bare record through the store,
	//     the shipper and the follower;
	//   - "net_plan_naive": the road-network oracle, one full SSSP per
	//     member; "net_plan": the production network backend;
	//     "net_update_inc": its incremental kept/partial protocol.
	Name      string `json:"name"`
	GroupSize int    `json:"group_size"`

	// NsPerOp, OpsPerSec and BytesPerOp come from a timed run whose
	// length the Go benchmark harness chooses; they vary with the machine
	// and its load.
	NsPerOp    float64 `json:"ns_per_op"`
	OpsPerSec  float64 `json:"ops_per_sec"`
	BytesPerOp int64   `json:"bytes_per_op"`

	// The remaining fields are exact: a sweep reproduces them on any
	// machine (see Exact). AllocsPerOp comes from an untimed replay of a
	// fixed op count (Report.ReplayOps) from a fresh setup.
	AllocsPerOp int64 `json:"allocs_per_op"`
	// TileVerifies, CandidatesChecked and IndexAccesses sum the
	// core.Stats counters of the same name over that replay; zero on a
	// series that never calls the planner.
	TileVerifies      int64 `json:"tile_verifies"`
	CandidatesChecked int64 `json:"candidates_checked"`
	IndexAccesses     int64 `json:"index_accesses"`
	// WireBytes is the bytes on the wire of one notification round (one
	// kept-path recomputation fanned out to all m members, frame length
	// prefixes included) on the notify_bytes_* series; zero elsewhere.
	WireBytes int64 `json:"wire_bytes,omitempty"`
}

// ExactFields names the fields Exact returns, in its order.
var ExactFields = [...]string{"allocs/op", "tile verifies", "candidates checked", "index accesses", "wire bytes"}

// Exact returns the series' exactly reproducible fields: any difference
// between two sweeps of one tree is nondeterminism in the fixture, and
// any increase between two trees is a regression.
func (s Series) Exact() [len(ExactFields)]int64 {
	return [...]int64{s.AllocsPerOp, s.TileVerifies, s.CandidatesChecked, s.IndexAccesses, s.WireBytes}
}

// Report is the full benchmark report with its workload parameters. Two
// reports compare only if every parameter matches.
type Report struct {
	Description string `json:"description"`
	GoMaxProcs  int    `json:"gomaxprocs"`
	POIs        int    `json:"pois"`
	TileLimit   int    `json:"tile_limit"`
	Buffer      int    `json:"buffer"`
	// ReplayOps is the op count of every series' untimed replay.
	ReplayOps int      `json:"replay_ops"`
	Series    []Series `json:"series"`
}
