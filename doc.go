// Package mpn is a library for Meeting Point Notification: continuously
// reporting the optimal meeting point for a group of moving users, with
// independent safe regions that minimize client–server communication.
//
// It reproduces the system of Li, Thomsen, Yiu and Mamoulis, "Efficient
// Notification of Meeting Points for Moving Groups via Independent Safe
// Regions" (ICDE 2013 / TKDE 2015). Given a set of points of interest P
// and a group of users U, the server reports the POI minimizing the
// maximum user distance (or, in the sum-optimal variant, the total user
// distance) together with one safe region per user: as long as every user
// stays inside her own region, the reported meeting point is guaranteed to
// remain optimal and nobody needs to contact the server.
//
// # Quick start
//
//	server, err := mpn.NewServer(pois, mpn.WithMethod(mpn.TileDirected))
//	group, err := server.Register(userLocations, nil) // dirs optional
//	p := group.MeetingPoint()          // the current optimum
//	r := group.Region(0)               // user 0's safe region
//	// ... user 0 moves to loc ...
//	if group.NeedsUpdate(0, loc) {
//	    group.Update(allCurrentLocations, dirs)
//	}
//
// Three safe-region strategies are provided: Circle (cheap to compute,
// escapes often), Tile (tile-based regions approximating the maximal safe
// region), and TileDirected (tiles grown toward each user's travel
// direction — the paper's best method; with nil dirs, the bearing of her
// move since the group's last plan). The buffering optimization
// (WithBuffer) makes tile computation touch the POI index exactly once per
// update.
//
// # The concurrent group engine
//
// Registered groups live in a sharded, lock-striped engine
// (internal/engine): groups hash over WithShards independent registry
// shards, each with a bounded work queue drained by WithWorkers
// recomputation workers, so operations on different shards never contend
// and total asynchronous compute parallelism is shards × workers.
//
// Group.Update recomputes synchronously on the caller's goroutine, as in
// the quick start above. Under heavy traffic, use the asynchronous path:
// Group.SubmitUpdate enqueues the fresh locations and returns
// immediately, workers recompute in the background, and results arrive on
// the notification stream:
//
//	sub := server.Subscribe(256)
//	go func() {
//	    for n := range sub.C {
//	        // n.Group, n.Meeting, n.Regions, n.Changed, n.Coalesced
//	    }
//	}()
//	group.SubmitUpdate(allCurrentLocations, dirs) // returns immediately
//
// Bursts of submissions for the same group coalesce: the engine keeps
// only the latest location snapshot per group and recomputes it once
// (Notification.Coalesced reports how many submissions a recomputation
// covered), so a storm of escape reports costs one safe-region
// computation instead of one per report. Per group there is at most one
// in-flight recomputation and notifications carry strictly increasing
// sequence numbers; subscription sends never block, with drops counted on
// the Subscription. With no subscribers attached, a recomputation hands
// its notification to no one and takes no lock for it. Server.Close
// releases the worker pool.
//
// # Zero-allocation steady-state planning
//
// Every safe-region recomputation draws its scratch state — the R-tree
// best-first heap and traversal stack, the GNN result buffer, candidate
// and bound slices, tile orderings, and the verification memo — from a
// reusable core.Workspace rather than the heap. Each engine worker owns one workspace for its whole lifetime and
// the synchronous paths (Group.Update, Server.Plan) borrow one from a
// pool, so steady-state planning allocates only the returned safe
// regions: two allocations per plan (one region-header slice and one
// shared tile arena), ~3 allocations per end-to-end update, down from
// thousands. Returned plans are exported by copy and never alias
// workspace memory, so they are safe to retain indefinitely. Long-lived
// custom compute loops hand core.Planner.Plan a core.NewWorkspace of
// their own; TestSteadyStateUpdateAllocs and the core-level allocation
// fence gate the budget so regressions fail CI.
//
// Around the planner, a steady-state report in cmd/mpnserver allocates
// only the plan's regions (about once per op on circle groups, from 27):
// the read loop, the coordinator lock, a member's region cache and
// recycled engine snapshots own every other buffer, under fences.
//
// The cost of one recomputation is the cost of its tile attempts, and an
// attempt costs O(m) per candidate POI, not O(tiles): the planner keeps
// running per-member region aggregates and one lazily filled memo cell
// per (member, candidate) — for MAX the member's minimum candidate
// distance and largest attacking tile, for SUM the paper's memoized
// focal-difference minimum — folds each accepted tile into them, and
// decides Divide-Verify from those instead of rescanning every region
// for every candidate (see core's verifyMemo; plans are bit-identical to
// the rescanning verifier, fenced by a golden corpus). Nor does it make
// the attempts that cannot succeed: Divide-Verify quarters a rejected
// tile down to the last split level, and most of its attempts used to go
// into subtrees that end up rejected whole; under buffered MAX one O(m)
// test against the rival that rejected the member's previous tile proves
// such a subtree dead before its first verify, and it is skipped (see
// core's deadSubtree; the same golden corpus holds every decision fixed
// while the work counters roughly halve). What remains per plan is the
// top-k retrieval, one tile-to-candidate distance per verify, and for
// unbuffered runs the pruned index search per attempt.
//
// cmd/mpnbench's -json mode benchmarks this path (planner kernel and
// engine update, swept over group size) and writes the ns/op, throughput,
// and allocs/op series to BENCH_plan.json — the committed baseline that
// cmd/benchgate enforces in CI (a series whose allocations, work counts
// or wire bytes rise, or whose ns/op normalised by the machine-speed
// scale more than doubles, fails the build).
//
// All planning flows through one entry point, core.Planner.Plan, which
// takes a PlanRequest naming the region kind (tiles, circles, or network
// ranges) and the optional PlanState for incremental maintenance.
//
// # Road-network backend
//
// WithRoadNetwork(net, poiNodes) switches a server from Euclidean
// planning to the paper's network variant: distances are shortest-path
// distances over a road graph, POIs sit on graph nodes, and each user's
// safe region is a network range — the set of road segments within a
// safe radius of her snapped position (network distance is a metric, so
// the paper's Theorem 1 radii carry over unchanged). The backend
// (internal/netmpn over internal/roadnet) is a production peer of the
// Euclidean one, reachable through the same Server/engine/wire stack
// and the same Planner.Plan entry point (core.KindNetRange):
//
//   - POI distance table: NewServer runs one Dijkstra per POI, once (in
//     parallel across GOMAXPROCS), and keeps the exact network distance
//     from every POI to every junction — |POI|·|V|·8 bytes, 2.3 MB for
//     178 POIs on 1,600 junctions. A member on edge (A,B) is
//     min(t·l + d(p,A), (1−t)·l + d(p,B)) from POI p, so a plan reads the
//     exact aggregate of every POI from the table and keeps the best
//     two: no per-query shortest-path search, no pruning, no
//     approximation. The table is rooted at the POIs where the naive
//     oracle (per-query Dijkstra from each member) is rooted at the
//     users; on an undirected graph the two sum the same edge lengths in
//     opposite order, so their aggregates agree to 1e-12 rather than
//     bitwise, and an exact tie between two POIs may resolve either way.
//     The differential fences assert that tolerance against the oracle
//     and bit-identity against brute force over POI-rooted Dijkstras.
//     NewServer refuses a network that is not undirected with one
//     finite non-negative length per street (ErrBadNetwork). A uniform
//     edge grid makes position snapping sublinear, bit-identical to the
//     exhaustive scan.
//   - Workspace and retained plans: network planning keeps its scratch
//     in the same core.Workspace as the Euclidean planners and records
//     its plans into core.PlanState, so kept/partial incremental
//     outcomes and the delta wire protocol work unchanged.
//     Cleanliness is judged at the member's snapped network position, so
//     an off-road GPS report a snap away from a covered segment does not
//     spuriously dirty her.
//
// Network regions encode with a dedicated 'N'-tagged wire codec (the
// covered segments over shared endpoints) understood by EncodeRegion /
// DecodeRegion and the coordinator. cmd/mpnserver -method net serves the
// network backend over TCP; the net_* series in BENCH_plan.json track
// the table-driven planner against the naive oracle (benchgate enforces
// ≥10×) and the incremental path, over groups whose members start at
// independent junctions.
//
// # Incremental vs full replanning
//
// By default every report recomputes the whole plan: a fresh result set
// and fresh regions for all m members. WithIncremental turns on
// incremental maintenance, the protocol the paper's independent safe
// regions exist for. The server retains each group's last plan; on a
// report it recomputes the result set (one GNN traversal — the
// irreducible cost of knowing whether the optimum moved) and then:
//
//   - Result set unchanged, every member still inside her region: the
//     whole retained plan stands (Notification.Outcome = ReplanKept).
//     Nothing is regrown; subscribers receive the retained regions
//     unchanged, and on the wire the delta protocol (below) ships a
//     handful of bytes instead of re-encoded regions.
//   - Result set unchanged, some members escaped: only the escapees'
//     regions are regrown, verified against the other members' retained
//     regions (ReplanPartial). The clean members stay silent.
//   - Result set churned, most of a tile group of at most three escaped,
//     or the retained regions leave an escapee's seed tile no room: full
//     replan (ReplanFull). Regrown around the retained regions, escapees
//     are crowded into small regions that cost more tile verifies than a
//     regrow of everyone; a doomed partial is abandoned at the seed,
//     before any growth round.
//
// Incremental and full plans are equivalent — both are valid safe-region
// sets for the same optimal meeting point, so correctness is unaffected —
// but not byte-identical: a retained region was grown around an older
// location, so a full replan at the current locations would shape it
// differently. Plans produced on the ReplanFull path are byte-identical
// to what the non-incremental server would compute. In the
// steady-state benchmark the kept path turns a multi-millisecond
// recomputation into ~10µs, and a single escaping member of a group of
// two or more costs a regrow of one region instead of m.
//
// # Delta notifications on the wire
//
// Incremental maintenance makes the server cheap; the delta protocol
// makes the wire cheap. The paper's cost model is communication — safe
// regions exist to suppress messages — yet a kept plan whose regions
// changed not at all would still ship every member her full encoded
// region on every notification. The protocol layer (internal/proto,
// cmd/mpnserver) closes that gap end to end. A planned tile region is
// encoded as the lattice lines of its δ cells and a quadtree per cell
// (internal/tileenc, which derives δ from the tiles), ~40 bytes for 30
// tiles; any other tile set as a list of its corners, 32 bytes a tile.
// Either decodes bit for bit.
// Every frame shares one layout — a length prefix, the type byte, then
// only the fields that type carries, integers as varints — so a step-1
// report or a probe reply is about 24 bytes and a probe about 8:
//
//   - One change test: the coordinator keeps, per member, the region it
//     last encoded for her with its bytes and a monotone epoch, and
//     compares each fresh region with it (core.SafeRegion.Equal). Only a
//     changed region is encoded and stamped with her next epoch — the
//     kept path's regions alias the cached ones, so it encodes nothing —
//     and a NACK is repaired from the cached bytes. The decision is per member, not per plan slot, so
//     membership churn that reshuffles slots re-sends nothing unchanged.
//   - Delta frames: clients negotiate with a Register flag; the server
//     then sends a compact TNotifyDelta (~10 bytes when nothing
//     changed) carrying the member's own encoded region only when it
//     changed, as the paper's step 3 sends each member her own region.
//     A carried region is complete, so one frame repairs any epoch gap.
//   - Full-frame fallback: registrations, clients that did not
//     negotiate, reconnects, any frame dropped at the member's backlog,
//     and client NACKs all force a full TNotify. The server never
//     assumes a client holds state it cannot prove was enqueued, and a
//     client never exposes state it cannot verify — so the reassembled
//     plan is byte-identical to the full protocol's at every step (the
//     differential fence in cmd/mpnserver drives both protocols over
//     the same report streams, both aggregates, both region shapes,
//     with a forced mid-stream reconnect, and compares after every
//     round).
//
// On the kept-path steady state at m=6 the notification round shrinks
// from ~375 B to ~60 B (≈6×; ~1.0 KB and ≈17× before tile regions took
// the lattice layout) and serialization from ~12µs to ~250ns; the
// notify_bytes_*/notify_encode_* series in BENCH_plan.json carry the
// numbers; cmd/benchgate gates the full frames' bytes exactly and bounds
// each delta frame at what the figure pipeline charges. The simulator and
// experiment harness account the same protocol (sim.Config.DeltaWire,
// mpnbench -delta), so the paper's communication figures reflect what the
// coordinator actually ships.
//
// # Live POI churn and snapshot semantics
//
// The POI set of a Euclidean server is mutable while it runs:
// Server.InsertPOI, Server.DeletePOI, and the batched Server.UpdatePOIs
// apply venue churn without stopping — or even pausing — planning (a
// road-network server refuses them with ErrFixedPOIs: its backend plans
// from distances computed once for its POI nodes). The index is published
// as immutable snapshots behind one atomic pointer (an RCU-style
// double buffer in internal/core):
//
//   - What readers pin: every safe-region computation acquires the
//     current snapshot — an R-tree, the id-indexed POI table, the
//     tombstone set, and the mutation version, all internally consistent
//     — and runs against it for its whole duration. A computation never
//     observes a half-applied batch, and concurrent computations may run
//     against different versions; Stats.IndexVersion reports which one
//     each plan saw.
//   - How writers publish: mutations serialize on a writer lock and are
//     applied to a shadow copy of the index (the tree retired two
//     publishes ago, caught up by replaying the batch it missed), then
//     published with a single pointer swap — the tree's version is
//     advanced strictly after its structure, so no reader can pair a new
//     version with old contents. Readers never block, and the writer
//     waits on at most one retired snapshot's readers. When accumulated
//     churn exceeds the live set size, the shadow is re-packed with the
//     STR bulk loader to restore load balance.
//   - What survives a mutation: retained incremental plans do not — the
//     next update for each group replans fully, because retained tiles
//     were verified against a candidate set the mutation may have
//     changed. Deleted POI ids are never reused, and a pinned snapshot
//     keeps its entire state valid until released.
//
// The churn differential fence asserts that after any interleaving of
// inserts and deletes, every planner variant produces plans identical
// to a freshly built server over the surviving POI set — deletions
// leave no trace — and the churn_* benchmark series gate the cost.
//
// # Failure semantics
//
// The serving stack degrades predictably under overload, slow or silent
// peers, planner bugs, and process restarts; every policy below is
// exercised by the chaos suite in cmd/mpnserver, which drives the full
// TCP stack through deterministic fault schedules (internal/faultinject)
// and then fences the surviving clients' final plans byte-for-byte
// against a fault-free run.
//
//   - Overload: Group.SubmitUpdate never waits and sheds nothing. A
//     group holds one pending snapshot and waits in its shard's run
//     queue at most once, so the queue is bounded by the registered
//     groups; a burst of updates coalesces into one recomputation over
//     the latest locations (Counters.Coalesced), and every update is
//     planned by the recomputation that covers it.
//   - Panic isolation: a panic inside a planner recomputation is
//     recovered by the owning worker and converted into an
//     error-carrying notification for that group (repeating the last
//     good sequence number); other groups, the shard, and the process
//     are unaffected, and the group's retained incremental state is
//     invalidated so the next update replans fully.
//   - Shutdown: Server.Close drains queued recomputations for at most
//     WithCloseTimeout before abandoning the remainder (counted in
//     Counters), then rejects further operations with ErrServerClosed.
//   - Dead and slow peers: cmd/mpnserver arms a read deadline covering
//     idle time (-read-timeout T, re-armed every T/8: a cut within 9T/8)
//     and a write deadline on every write that has to wait
//     (-write-timeout); clients send Ping heartbeats
//     (proto.WithHeartbeat) so an idle-but-alive client is never reaped
//     while a silent TCP hole is, on both ends. Each frame is encoded
//     when sent and written at once with a non-blocking write; only
//     what a full socket does not take waits in the connection's
//     backlog of up to 16 frames, written by a goroutine that lives
//     while the backlog is non-empty (a frame too large to encode is
//     dropped and counted there, like an overflow). A client too slow
//     to drain its backlog first has deliveries coalesced (newest plan
//     wins), then is disconnected with an observable reason; a failed
//     write disconnects it at once. Per-connection byte and error
//     accounting distinguishes peer-closed, protocol error, and idle
//     timeout.
//   - Restarts: proto.ReconnectClient redials with exponential backoff
//     plus seeded jitter, re-registers, and resumes via the server's
//     full-snapshot-on-register path; across a server restart the client
//     keeps serving its retained plan and converges to the fresh one —
//     invisible to the application beyond latency and a Reconnects
//     counter. Corrupt or truncated frames surface as ErrCorruptFrame
//     (never a panic; FuzzFrame enforces this), which tears down only
//     the one connection.
//
// # Durability and crash recovery
//
// cmd/mpnserver -state-dir makes the serving state crash-safe: a
// CRC-framed append-only write-ahead log plus periodic snapshot
// compaction (internal/durable) persist every durably significant
// transition — group registrations with member ids and last committed
// locations, group unregistrations, and applied POI mutation batches
// (stamped with the external-id base so replay reproduces id
// assignment). The engine emits these through a journal hook at its
// commit sites; the hook only encodes and enqueues to a bounded queue
// drained by one writer goroutine, so the update hot path never touches
// a file — when the queue is full, records are shed and counted rather
// than ever blocking serving (the next commit re-records the group's
// current state, so a shed is lost freshness, not corruption).
//
// -fsync picks the loss window: "always" fsyncs every write batch (a
// crash loses only records still queued), "interval" (the default)
// fsyncs at most once per interval (a crash loses at most one interval),
// "off" never fsyncs until clean close. On boot the server replays
// snapshot plus log, re-applies POI batches, re-registers every durable
// group into the engine, and only then arms the journal and accepts
// connections — reconnecting clients resume through the same
// full-snapshot-on-register path an ordinary reconnect uses, and a
// group whose membership changed across the restart is retired and
// re-registered on its first report.
//
// Recovery tolerates torn writes by construction: the log is scanned
// frame by frame and truncated at the first bad length, CRC, or short
// frame — the valid prefix is the recovered state, never a panic, never
// a phantom record (FuzzWALRecover feeds arbitrary corruption to the
// recovery path to enforce exactly this; snapshots are written to a
// temp file, fsynced, and atomically renamed, so a torn snapshot cannot
// exist). The chaos suite's kill-and-restore schedules crash the server
// mid-churn — including through injected torn tails and
// crash-before-fsync faults — restart it from the state directory, and
// fence the restored server's plans byte-for-byte against a fault-free
// run. The durable_update and wal_append series in BENCH_plan.json
// price the journal on the steady-state update path and the store's
// sustained append rate; cmd/benchgate enforces the disclosed overhead
// ceiling against update_inc.
//
// # Replication and failover
//
// cmd/mpnserver -replicate-to turns a durable server into a replicating
// primary: internal/replica ships the WAL record stream — the same
// CRC-framed records -state-dir journals — to any number of followers
// over TCP. Each follower connection gets a consistent snapshot seed
// (the store's folded mirror at a stream position) followed by the live
// record tail from exactly that position, and acks applied positions
// back; StreamPos minus the lowest follower ack is the primary's lag
// bound in records, visible in the stats endpoint. A follower that
// falls behind its subscription buffer is cut and reseeds on reconnect,
// so a slow standby can never stall the primary's write path.
//
// A standby (-standby-of, pointed at the primary's replication address)
// replays every shipped record through the paths boot-time recovery and
// client reports use — POI batches through the planner, group records
// into the engine, each new group's first plan queued on its shard
// worker like a client's — so its engine is warm the moment it is asked
// to serve. While following, it refuses client writes with
// a redirect at the primary. Promotion (automatic after -promote-after
// of primary silence, and never after a fatal divergence) bumps a
// fencing epoch above everything the primary ever presented, journals
// it, and best-effort fences the old primary, which refuses writes from
// then on and redirects clients at its successor. Epochs ride the
// journal, the snapshot, and every replication handshake, so fencing
// survives crashes of either node: a deposed primary that restarts from
// its own state directory comes back already fenced out by any follower
// that promoted past it.
//
// Clients built on proto.NewReconnectClientAddrs carry the address list
// and adopt server-pushed peer frames (epoch-gated, so a stale list
// never overrides a newer one), failing over without operator
// involvement: a write refused by a standby or fenced node arrives with
// the peer list naming who can serve it. The loss window on failover is
// the replication lag at the moment the primary died, on top of the
// -fsync window: with fsync=always a promoted follower is
// missing at most the records the primary had not yet streamed; with
// fsync=interval a crashed-and-restarted primary may itself have lost
// up to one interval that its follower retained — the failover chaos
// suite (TestFailover*/TestFollowerCatchUp in cmd/mpnserver) fences
// both directions byte-for-byte, and FuzzReplStream feeds arbitrary
// corruption to the stream consumer. The repl_ship and repl_lag series
// in BENCH_plan.json price shipping on the update path and the
// follower's drain rate; cmd/benchgate enforces the disclosed ceiling
// against update_inc.
//
// One package assembles the serving stack: internal/serving builds the
// planner, the road-network backend and the engine from
// one Config, and NewServer and cmd/mpnserver only map their options or
// flags onto it — so the library and the binary plan alike, which a
// parity fence in cmd/mpnserver checks for every method and objective.
//
// The internal packages implement the full substrate from scratch: an
// R-tree (internal/rtree), top-k group nearest neighbor search
// (internal/gnn), the safe-region algorithms (internal/core), the sharded
// concurrent group engine (internal/engine), a compact safe-region wire
// codec (internal/tileenc), the client/server wire protocol and
// coordinator (internal/proto, cmd/mpnserver), synthetic road networks
// and mobility models (internal/roadnet, internal/mobility), and the
// experiment harness reproducing every figure of the paper
// (internal/experiments, cmd/mpnbench).
package mpn
