// Package benchfmt defines the machine-readable benchmark report format
// shared by its producer (cmd/mpnbench -json, committed as
// BENCH_plan.json) and its consumer (cmd/benchgate), so the schema
// cannot silently drift between the two: a field rename that decoded to
// a zero value on one side would otherwise disable the gate for that
// field without any error.
package benchfmt

// Series is one benchmark series: a named measurement at one group size.
type Series struct {
	// Name identifies the measured path: "plan" (planner kernel, owned
	// workspace), "update" (engine synchronous recomputation),
	// "update_inc" (incremental engine, in-region jitter: the kept-plan
	// fast path), "update_escape"/"update_inc_escape" (one member
	// oscillating out of her region, full-replan vs incremental engine),
	// "notify_encode_full"/
	// "notify_encode_delta" (server-side cost of serializing one
	// kept-path notification round to all m members, full protocol vs
	// epoch-tracked delta protocol), "notify_bytes_full"/
	// "notify_bytes_delta" (WireBytes only: the wire size of that same
	// round), or the "churn_*" family — planning under live POI churn:
	// "churn_plan" (planner kernel with a localized mutation batch
	// landing every few iterations) and "churn_mutate" (one batched
	// ApplyPOIs publication: shadow catch-up, R-tree insert/delete,
	// snapshot swap).
	Name        string  `json:"name"`
	GroupSize   int     `json:"group_size"`
	NsPerOp     float64 `json:"ns_per_op"`
	OpsPerSec   float64 `json:"ops_per_sec"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`

	// WireBytes is the deterministic bytes-on-wire of one notification
	// event (one kept-path recomputation fanned out to all m members,
	// frame length prefixes included) for the notify_bytes_* series;
	// omitted elsewhere. Machine-independent, so cmd/benchgate compares
	// it without normalization and additionally enforces the delta
	// protocol's steady-state reduction ratio.
	WireBytes float64 `json:"wire_bytes,omitempty"`
}

// Report is the full benchmark report with its workload parameters.
type Report struct {
	Description string   `json:"description"`
	GoMaxProcs  int      `json:"gomaxprocs"`
	POIs        int      `json:"pois"`
	TileLimit   int      `json:"tile_limit"`
	Buffer      int      `json:"buffer"`
	Series      []Series `json:"series"`
}
