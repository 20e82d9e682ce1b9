// Command mpnserver serves the Meeting Point Notification protocol over
// TCP: one connection per user, groups assembled by group id, safe regions
// computed with the configured method and shipped in the compact region
// encoding (the Fig. 3 architecture as a real network service).
//
// Compute runs on the sharded concurrent group engine (internal/engine):
// the member who completes a group, and every escape report after, hands
// the group's fresh locations to a per-shard work queue and returns
// immediately, and a shard worker computes the safe regions (coalescing
// bursts for the same group into one recomputation) and delivers them to
// the members' connections itself, the group's first plan included. So
// connection read loops never run or wait on the planner, no plan runs
// under the coordinator lock, and no report waits for room or is shed: a
// group sits in its shard's queue at most once, and the worker plans its
// latest locations.
// Under -method tiled the engine derives each member's heading
// server-side, from the group's last planned locations; no frame carries
// one, and a restored or replicated group starts from the default
// heading again.
//
// Notifications use the delta wire protocol: clients that negotiate it
// receive region diffs — the coordinator compares each member's region
// with the one it last sent her, only a changed region travels, and a
// steady-state "nothing changed" frame is ~10 bytes — with
// automatic full-frame fallback on registration, reconnect, dropped
// frames, and client NACKs; clients that do not negotiate it receive full
// frames. At shutdown the server logs one line from one snapshot of every
// layer's counters: plans per incremental outcome and coalesced reports
// (each counted once, by the engine), connections, the WAL and the
// replication shipper.
// SIGTERM or SIGINT stops the server cleanly: the listener closes, queued
// recomputations drain, the WAL flushes and syncs, and that line prints.
// A second signal exits at once.
//
// With -state-dir the server's authoritative state — group
// registrations and membership, last committed member locations, and
// POI mutations — is journaled to a CRC-framed write-ahead log with
// periodic snapshot compaction (internal/durable). On boot the
// directory is replayed (a torn tail from a crash is truncated, never
// fatal) and every recovered group is re-registered with the compute
// engine, so reconnecting clients resume through the ordinary
// full-snapshot-on-register path. -fsync picks the loss window:
// "always" survives any crash minus the queued tail, "interval"
// (default) bounds loss to one sync period, "off" defers to the OS.
// Journaling runs behind a bounded queue off the planning path — under
// pressure records are shed and counted, never blocking a replan.
//
// Hot-standby replication (internal/replica) rides on the durable log:
// a primary started with -replicate-to streams its record log —
// snapshot seed plus live tail, CRC-framed, position-acked — to any
// number of followers, and a node started with -standby-of follows a
// primary, continuously replaying the stream through the same recovery
// paths boot uses, so it serves the instant it is promoted. A standby
// refuses client writes with a redirect at the primary; on promotion
// (manual, or -promote-after of primary silence) it adopts a fencing
// epoch above everything it has seen, journals it, and fences the old
// primary, which from then on refuses writes and redirects clients at
// its successor. Clients built on proto.ReconnectClient receive pushed
// peer lists (-advertise) and fail over without operator involvement.
//
// Usage:
//
//	mpnserver [-listen :7464] [-method circle|tile|tiled|net] [-agg max|sum]
//	          [-n 21287] [-alpha 30] [-buffer 100] [-seed 42] [-pois FILE.csv]
//	          [-shards N] [-workers N] [-incremental] [-gnncache N]
//	          [-read-timeout 2m] [-write-timeout 30s] [-slow-limit N]
//	          [-close-timeout 5s] [-state-dir DIR] [-fsync always|interval|off]
//	          [-replicate-to ADDR] [-standby-of ADDR] [-advertise ADDR]
//	          [-promote-after 10s]
//
// POIs are generated synthetically unless -pois points to a CSV file: one
// POI per line as "x,y" (two finite decimal floats; blank lines and an
// "x,y" header line are skipped). With -method net the server plans
// under shortest-path distance on a synthetic road network:
// POIs sit on every 9th network node (netPOIEvery), safe regions are
// covered road segments shipped with the 'N' wire tag, -pois, -n and
// -seed are ignored and no Euclidean POIs are generated, and the POI set
// is fixed: a durable or replicated POI batch is refused. -gnncache is
// accepted and ignored (the shared GNN cache it sized was deleted); it is
// removed with ROADMAP 9, once the benchmark stops passing it.
package main

import (
	"bufio"
	"errors"
	"flag"
	"fmt"
	"log"
	"net"
	"os"
	"os/signal"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"mpn/internal/core"
	"mpn/internal/durable"
	"mpn/internal/engine"
	"mpn/internal/geom"
	"mpn/internal/gnn"
	"mpn/internal/proto"
	"mpn/internal/replica"
	"mpn/internal/roadnet"
	"mpn/internal/serving"
	"mpn/internal/workload"
)

func main() {
	log.SetFlags(log.LstdFlags)
	log.SetPrefix("mpnserver: ")
	cfg, listen, err := parseFlags(flag.CommandLine, os.Args[1:])
	if err != nil {
		log.Fatal(err)
	}
	cfg.logger = log.Default()
	srv, err := newServer(cfg)
	if err != nil {
		log.Fatal(err)
	}
	defer srv.close()

	ln, err := net.Listen("tcp", listen)
	if err != nil {
		log.Fatal(err)
	}
	eo := srv.eng.Options()
	mode := "full-replan"
	if cfg.incremental {
		mode = "incremental"
	}
	// Handled from the "serving" line on: the first SIGTERM or SIGINT closes
	// the listener, so serve returns and the deferred close runs; a second
	// exits at once.
	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, syscall.SIGTERM, os.Interrupt)
	go func() {
		log.Printf("%v: stopping", <-sigs)
		ln.Close()
		log.Fatalf("%v: exiting without a clean stop", <-sigs)
	}()
	log.Printf("serving %d POIs with %s/%s on %s (%d shards × %d workers, %s)",
		srv.planner.NumPOIs(), cfg.method, cfg.agg, ln.Addr(), eo.Shards, eo.Workers, mode)
	if err := srv.serve(ln); err != nil {
		log.Fatal(err)
	}
}

// parseFlags maps the command line onto a server configuration and the
// listen address, loading the POI set a Euclidean method plans over.
func parseFlags(fs *flag.FlagSet, args []string) (serverConfig, string, error) {
	var cfg serverConfig
	listen := fs.String("listen", ":7464", "TCP listen address")
	fs.StringVar(&cfg.method, "method", "tiled", "safe-region method: circle, tile, tiled, or net (plan under shortest-path distance on a synthetic road network; POIs live on network nodes and safe regions are covered road segments)")
	fs.StringVar(&cfg.agg, "agg", "max", "objective: max or sum")
	n := fs.Int("n", workload.DefaultPOICount, "synthetic POI count (ignored with -pois and -method net)")
	fs.IntVar(&cfg.alpha, "alpha", 30, "tile limit α")
	fs.IntVar(&cfg.buffer, "buffer", 100, "buffering parameter b")
	seed := fs.Int64("seed", 42, "synthetic POI seed")
	poiPath := fs.String("pois", "", "CSV file of x,y POIs (optional; ignored with -method net)")
	fs.IntVar(&cfg.shards, "shards", 0, "engine registry shards (0 = GOMAXPROCS)")
	fs.IntVar(&cfg.workers, "workers", 0, "recompute workers per shard (0 = 1)")
	fs.BoolVar(&cfg.incremental, "incremental", false, "incremental safe-region maintenance: keep retained regions and regrow only what a report invalidates")
	fs.Int64("gnncache", 0, "accepted and ignored; removed with ROADMAP 9")
	fs.DurationVar(&cfg.readTimeout, "read-timeout", 2*time.Minute, "idle deadline armed before every connection read; a peer silent this long is disconnected (0 disables)")
	fs.DurationVar(&cfg.writeTimeout, "write-timeout", 30*time.Second, "deadline on a connection write that has to wait for a full socket; a peer that stops draining this long is disconnected (0 disables)")
	fs.IntVar(&cfg.slowLimit, "slow-limit", 0, "consecutive outbox drops before a slow client is disconnected (0 = default, negative = never)")
	fs.DurationVar(&cfg.closeTimeout, "close-timeout", 0, "how long shutdown drains queued recomputations before abandoning them (0 = engine default, negative = unbounded)")
	fs.StringVar(&cfg.stateDir, "state-dir", "", "durable state directory (write-ahead log + snapshots); restored on boot, empty disables durability")
	fs.StringVar(&cfg.fsync, "fsync", "interval", "WAL fsync policy: always (per write batch), interval (periodic, bounded loss), off (clean close only)")
	fs.StringVar(&cfg.replicateTo, "replicate-to", "", "serve the replication (WAL-shipping) stream to hot-standby followers on this address; requires -state-dir")
	fs.StringVar(&cfg.standbyOf, "standby-of", "", "follow the primary at this replication address as a hot standby: client writes are refused with a redirect until promotion")
	fs.StringVar(&cfg.advertise, "advertise", "", "this node's client-facing address, pushed to clients in peer frames so they can fail over")
	fs.DurationVar(&cfg.promoteAfter, "promote-after", 0, "auto-promote a standby whose primary has been unreachable this long (0 = never promote automatically)")
	err := fs.Parse(args)
	// The flag set keeps pointers into cfg for good: the POIs go into a
	// copy, so they do not stay reachable after the planner indexed them.
	run := cfg
	if err == nil && run.method != "net" {
		run.pois, err = loadPOIs(*poiPath, *n, *seed)
	}
	return run, *listen, err
}

// serverConfig parameterizes a server instance (flags in production, a
// small synthetic setup in the end-to-end test). pois is ignored by the
// net method.
type serverConfig struct {
	pois            []geom.Point
	method, agg     string
	alpha, buffer   int
	shards, workers int
	incremental     bool
	// Failure-semantics knobs (zero values keep prior behavior for
	// timeouts and pick engine/coordinator defaults for the rest).
	readTimeout, writeTimeout time.Duration
	slowLimit                 int
	closeTimeout              time.Duration
	// Durability (empty stateDir disables): fsync is the WAL sync
	// policy ("" = interval), fsyncEvery shortens the interval period
	// (0 = store default; tests use milliseconds to tighten the crash
	// loss window deterministically).
	stateDir   string
	fsync      string
	fsyncEvery time.Duration
	// Replication (hot standby): replicateTo serves the WAL record
	// stream to followers on this address (requires stateDir — the
	// stream is the durable record log); standbyOf makes this node a
	// standby following that primary replication address, refusing
	// client writes with a redirect until promoted; advertise is this
	// node's client-facing address, pushed to clients in peer frames
	// and presented to the peer in replication handshakes;
	// promoteAfter auto-promotes a standby whose primary has been
	// unreachable that long (0 = manual promotion only).
	// replRetry/replAck tighten the tailer's reconnect backoff and
	// ack cadence (0 = package defaults; tests use milliseconds).
	replicateTo, standbyOf, advertise string
	promoteAfter                      time.Duration
	replRetry, replAck                time.Duration
	logger                            *log.Logger
}

// server wires the protocol coordinator to the sharded group engine: the
// coordinator submits replans, and the engine's worker that commits a
// plan delivers it to the members' connections (see deliver).
type server struct {
	eng     *engine.Engine
	coord   *proto.Coordinator
	planner *core.Planner
	logger  *log.Logger

	// store journals group/POI state when durability is on (nil
	// otherwise); journalOn gates the engine's journal hook so
	// boot-time restore — whose state is already in the log — is not
	// re-journaled while it re-registers recovered groups.
	store     *durable.Store
	stateDir  string
	journalOn atomic.Bool

	readTimeout  time.Duration
	writeTimeout time.Duration
	cstats       connStats

	// mu guards the protocol-group → engine-group id mapping that client
	// reports, boot-time restore and replicated records share (see
	// routeGroup).
	mu          sync.Mutex
	gidToEngine map[uint32]engine.GroupID

	// Replication (see replication.go): role gates client writes
	// through writeGate, epoch is the monotone fencing epoch, ship
	// streams the WAL to followers, tail follows a primary while
	// standby. fencedEpoch/fencedPeer remember who deposed this node
	// so refused writes still redirect clients at the winner.
	role         *replica.RoleState
	epoch        atomic.Uint64
	ship         *replica.Shipper
	shipLn       net.Listener
	tail         *replica.Tailer
	advertise    string
	standbyOf    string
	promoteAfter time.Duration
	poiBase      int
	fencedEpoch  atomic.Uint64
	fencedPeer   atomic.Value // string
	replMu       sync.Mutex   // serializes promotion
	replStop     chan struct{}
	replOnce     sync.Once
}

// reportTag travels with every engine registration and submission for a
// protocol group: the protocol group id plus the ascending member-id
// ordering the location snapshot was computed for. deliver routes a
// notification by gid and fences it against membership churn with ids;
// the durable journal logs committed state under gid, the group's stable
// identity.
type reportTag struct {
	gid uint32
	ids []uint32
}

// serverJournal adapts engine.Journal to the durable store. The store's
// hooks encode and enqueue without blocking, so these run safely under
// the engine's group lock.
type serverJournal struct{ s *server }

func (j serverJournal) GroupCommitted(tag any, users []geom.Point, _ []core.Direction) {
	if !j.s.journalOn.Load() {
		return
	}
	if rt, ok := tag.(reportTag); ok {
		j.s.store.GroupUpsert(rt.gid, rt.ids, users)
	}
}

func (j serverJournal) GroupRemoved(tag any) {
	if !j.s.journalOn.Load() {
		return
	}
	if rt, ok := tag.(reportTag); ok {
		j.s.store.GroupUnregister(rt.gid)
	}
}

// netPOIEvery places the "net" method's POIs on every netPOIEvery-th
// network node.
const netPOIEvery = 9

// newServer maps the configuration onto the serving stack (see
// internal/serving), restores durable state into it, and wires the
// coordinator and replication around it.
func newServer(cfg serverConfig) (*server, error) {
	if cfg.logger == nil {
		cfg.logger = log.New(os.Stderr, "", 0)
	}
	scfg := serving.Config{
		Kind: core.KindTiles, Core: core.DefaultOptions(), POIs: cfg.pois,
		Incremental: cfg.incremental,
		Engine: engine.Options{
			Shards: cfg.shards, Workers: cfg.workers, CloseTimeout: cfg.closeTimeout,
		},
	}
	scfg.Core.TileLimit = cfg.alpha
	scfg.Core.Buffer = cfg.buffer
	switch cfg.method {
	case "tiled":
		scfg.Core.Directed = true
	case "tile":
	case "circle":
		scfg.Kind = core.KindCircle
	case "net":
		netw, err := roadnet.Generate(roadnet.DefaultConfig())
		if err != nil {
			return nil, err
		}
		for i := 0; i < netw.NumNodes(); i += netPOIEvery {
			scfg.POINodes = append(scfg.POINodes, i)
		}
		scfg.Kind, scfg.Network = core.KindNetRange, netw
	default:
		return nil, fmt.Errorf("unknown method %q", cfg.method)
	}
	switch cfg.agg {
	case "max":
		scfg.Core.Aggregate = gnn.Max
	case "sum":
		scfg.Core.Aggregate = gnn.Sum
	default:
		return nil, fmt.Errorf("unknown aggregate %q", cfg.agg)
	}
	pol := durable.PolicyInterval
	if cfg.stateDir != "" && cfg.fsync != "" {
		p, err := durable.ParsePolicy(cfg.fsync)
		if err != nil {
			return nil, err
		}
		pol = p
	}
	s := &server{
		stateDir:     cfg.stateDir,
		logger:       cfg.logger,
		readTimeout:  cfg.readTimeout,
		writeTimeout: cfg.writeTimeout,
		gidToEngine:  map[uint32]engine.GroupID{},
	}
	if cfg.stateDir != "" {
		scfg.Engine.Journal = serverJournal{s}
	}
	stack, err := serving.New(scfg)
	if err != nil {
		return nil, err
	}
	s.planner, s.eng = stack.Planner, stack.Engine
	s.poiBase = s.planner.NumPOIs()

	// Durable state: recover whatever a previous process persisted —
	// truncating a torn tail from an unclean death — before any plan
	// is computed, so restored groups plan against the restored POI
	// set. The recorded POI base fences config drift: a state
	// directory from a different -n/-seed/-pois boot is refused rather
	// than silently merged.
	var restored *durable.State
	if cfg.stateDir != "" {
		var info durable.RecoverInfo
		s.store, restored, info, err = durable.Open(durable.Config{
			Dir: cfg.stateDir, Fsync: pol, Interval: cfg.fsyncEvery,
			POIBase: s.poiBase,
		})
		if err != nil {
			s.eng.Close()
			return nil, fmt.Errorf("durable state %s: %w", cfg.stateDir, err)
		}
		if info.TornBytes > 0 {
			cfg.logger.Printf("durable log had a torn tail: truncated %dB after %d valid records", info.TornBytes, info.LogRecords)
		}
		if len(restored.POIInserts) > 0 || len(restored.POIDeleted) > 0 {
			// A net server refuses the batch (core.ErrFixedPOIs).
			if _, aerr := s.planner.ApplyPOIs(restored.POIInserts, restored.POIDeleted); aerr != nil {
				s.store.Close()
				s.eng.Close()
				return nil, fmt.Errorf("durable state %s: POI replay: %w", cfg.stateDir, aerr)
			}
		}
		// From here on, every applied POI batch is journaled (replay
		// above predates the hook on purpose — it is already logged).
		s.planner.OnMutate(s.store.POIBatch)
	}

	// Re-own every recovered group before taking traffic: each is
	// registered with its last committed member locations and retained
	// id ordering, and its plan is computed here, before the listener
	// opens (the synchronous RegisterTag), so a member reconnecting a
	// moment later resumes through the ordinary full-snapshot-on-register
	// path as if the process never died. The journal stays disarmed until
	// every restored plan has committed — this state is already in the
	// log, and a queued plan would commit after the journal is armed.
	if restored != nil && len(restored.Groups) > 0 {
		gids := make([]uint32, 0, len(restored.Groups))
		for gid := range restored.Groups {
			gids = append(gids, gid)
		}
		sort.Slice(gids, func(i, j int) bool { return gids[i] < gids[j] })
		ok := 0
		for _, gid := range gids {
			g := restored.Groups[gid]
			if rerr := s.routeGroup(gid, g.IDs, g.Locs, s.eng.RegisterTag); rerr != nil {
				cfg.logger.Printf("group %d: restore failed: %v", gid, rerr)
				continue
			}
			ok++
		}
		cfg.logger.Printf("restored %d/%d durable groups", ok, len(gids))
	}
	s.journalOn.Store(true)

	s.coord = proto.NewAsyncCoordinator(s.submit, cfg.logger)
	s.coord.SetGroupEmptyHook(s.onGroupEmpty)
	s.coord.SetSlowClientLimit(cfg.slowLimit)
	s.eng.Observe(s.deliver)
	if err := s.initReplication(cfg, restored); err != nil {
		s.close()
		return nil, err
	}
	return s, nil
}

// routeGroup hands protocol group gid's location snapshot to the engine —
// the one gid→engine routine behind client reports (submit), boot-time
// restore and replicated group records. The first snapshot registers the
// group through register: RegisterAsync, which queues its first plan on
// the group's shard worker, on the client and replication paths, and the
// synchronous RegisterTag on boot-time restore only. So does a snapshot
// whose member count differs from the engine group's — one restored or
// replicated under a shape the members no longer have — after the stale
// engine group is retired (journaled, so a crash right there does not
// resurrect it). Every other snapshot is a plain SubmitTag.
func (s *server) routeGroup(gid uint32, ids []uint32, users []geom.Point, register func([]geom.Point, []core.Direction, any) (engine.GroupID, error)) error {
	tag := reportTag{gid: gid, ids: ids}
	s.mu.Lock()
	eid, ok := s.gidToEngine[gid]
	if ok && s.eng.Size(eid) == len(users) {
		s.mu.Unlock()
		return s.eng.SubmitTag(eid, users, nil, tag)
	}
	defer s.mu.Unlock()
	if ok {
		delete(s.gidToEngine, gid)
		s.eng.Unregister(eid)
	}
	eid, err := register(users, nil, tag)
	if err != nil {
		return err
	}
	s.gidToEngine[gid] = eid
	return nil
}

// submit is the coordinator's replan hook, called with the coordinator
// lock held — that lock is what keeps a group's snapshots ordered, so the
// engine's coalescing slot always ends on the latest locations. It only
// ever enqueues, first contact included, and never returns a plan
// inline: it must not wait for the engine, since the worker delivering a
// plan needs the coordinator lock. The member-id ordering travels as the
// submission tag so deliveries can be verified against membership churn.
func (s *server) submit(gid uint32, ids []uint32, users []geom.Point) (geom.Point, []core.SafeRegion, []uint64, bool) {
	if err := s.routeGroup(gid, ids, users, s.eng.RegisterAsync); err != nil {
		s.deliverError(gid, err)
	}
	return geom.Point{}, nil, nil, false
}

// deliverError reports a submission failure to the group's members. It
// must run off the submit path: submit holds the coordinator lock and
// Deliver re-acquires it.
func (s *server) deliverError(gid uint32, err error) {
	go s.coord.Deliver(gid, nil, nil, geom.Point{}, nil, err)
}

// deliver is the engine's observer: the worker that committed a plan,
// the group's first included, hands it to the coordinator. Deliver runs
// live under the coordinator lock, so a group that dissolved and
// re-formed with the same member ids cannot receive the old plan: engine
// ids are never reused, and every retirement of a gid's engine group
// unregisters it, on the client path under the coordinator lock
// (onGroupEmpty, routeGroup).
func (s *server) deliver(n engine.Notification) {
	rt, ok := n.Tag.(reportTag)
	if !ok {
		return
	}
	eid := n.Group
	live := func() bool { return s.eng.Size(eid) > 0 }
	s.coord.Deliver(rt.gid, rt.ids, live, n.Meeting, n.Regions, n.Err)
}

// onGroupEmpty releases the engine group when its last member leaves.
func (s *server) onGroupEmpty(gid uint32) {
	s.mu.Lock()
	eid, ok := s.gidToEngine[gid]
	delete(s.gidToEngine, gid)
	s.mu.Unlock()
	if ok {
		s.eng.Unregister(eid)
	}
}

// serve accepts connections until the listener closes. Every connection
// is wrapped in a guardedConn: idle and write deadlines bound how long a
// dead or stalled peer can hold resources, and byte/error accounting
// feeds the per-connection disconnect log and the server stats. The
// coordinator writes through its transport, which can try a write
// without waiting.
func (s *server) serve(ln net.Listener) error {
	for {
		conn, err := ln.Accept()
		if err != nil {
			if errors.Is(err, net.ErrClosed) {
				return nil
			}
			return err
		}
		gc := newGuardedConn(conn, s.readTimeout, s.writeTimeout, &s.cstats)
		go func() {
			err := s.coord.ServeConn(gc.transport())
			if err != nil || gc.errs.Load() > 0 {
				s.logger.Printf("conn %v: %s (read %dB, wrote %dB, %d conn errors): %v",
					conn.RemoteAddr(), gc.reason(err), gc.rBytes.Load(), gc.wBytes.Load(), gc.errs.Load(), err)
			}
		}()
	}
}

// snapshot is the server's counters at one instant: each layer's own
// accounting by value, zero for a layer that is off.
type snapshot struct {
	Engine engine.Counters
	Coord  proto.CoordStats
	WAL    durable.Stats
	Ship   replica.ShipperStats
	Tail   replica.TailerStats
	Conns  connTotals
	Role   string // replication role
	Epoch  uint64 // fencing epoch
}

func (s *server) snapshot() snapshot {
	sn := snapshot{
		Engine: s.eng.Counters(), Coord: s.coord.Stats(), Conns: s.cstats.totals(),
		Role: s.role.Get().String(), Epoch: s.epoch.Load(),
	}
	if s.store != nil {
		sn.WAL = s.store.Stats()
	}
	if s.ship != nil {
		sn.Ship = s.ship.Stats()
	}
	if s.tail != nil {
		sn.Tail = s.tail.Stats()
	}
	return sn
}

// close stops the engine (draining and delivering queued recomputations
// up to the configured deadline), closes the store (a clean close fsyncs
// the final journal records), and logs one snapshot so overload during
// the run is visible post-hoc.
func (s *server) close() {
	s.stopRepl()
	s.eng.Close()
	if s.store != nil {
		if err := s.store.Close(); err != nil {
			s.logger.Printf("durable close: %v", err)
		}
	}
	st := s.snapshot()
	c, w := st.Engine, st.WAL
	s.logger.Printf("served %d conns (%dB in, %dB out); plans full=%d partial=%d kept=%d coalesced=%d abandoned=%d slow-kicks=%d dropped-frames=%d idle-timeouts=%d read-errs=%d write-errs=%d; wal appended=%d shed=%d syncs=%d compactions=%d errors=%d wedged=%v; ship seeds=%d cuts=%d",
		st.Conns.Accepted, st.Conns.ReadBytes, st.Conns.WriteBytes,
		c.Plans[core.IncFull], c.Plans[core.IncPartial], c.Plans[core.IncKept], c.Coalesced, c.Abandoned,
		st.Coord.SlowClientDisconnects, st.Coord.DroppedFrames,
		st.Conns.IdleTimeouts, st.Conns.ReadErrors, st.Conns.WriteErrors,
		w.Appended, w.Shed, w.Syncs, w.Compactions, w.Errors, w.Wedged,
		st.Ship.Seeds, st.Ship.Cuts)
}

// crash tears the server down as if the process died at this instant:
// the WAL is wedged at its last fsynced byte first — nothing appended
// after the crash point may persist — and only then is the serving
// stack dismantled (so the test harness leaks no goroutines). The
// kill-and-restore chaos schedule drives recovery through this.
func (s *server) crash() {
	s.stopRepl()
	if s.store != nil {
		s.store.Crash()
	}
	s.eng.Close()
}

// loadPOIs generates a synthetic set or, given a path, reads a CSV file
// with one POI per line as "x,y": two finite decimal floats, spaces around
// either allowed; blank lines and an "x,y" header line are skipped. Any
// other line fails the load with its line number.
func loadPOIs(path string, n int, seed int64) ([]geom.Point, error) {
	if path == "" {
		cfg := workload.DefaultPOIConfig()
		cfg.N = n
		cfg.Seed = seed
		return workload.GeneratePOIs(cfg)
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var pts []geom.Point
	sc := bufio.NewScanner(f)
	line := 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" || text == "x,y" {
			continue
		}
		parts := strings.Split(text, ",")
		if len(parts) != 2 {
			return nil, fmt.Errorf("%s:%d: want x,y", path, line)
		}
		x, err := strconv.ParseFloat(strings.TrimSpace(parts[0]), 64)
		if err != nil {
			return nil, fmt.Errorf("%s:%d: %v", path, line, err)
		}
		y, err := strconv.ParseFloat(strings.TrimSpace(parts[1]), 64)
		if err != nil {
			return nil, fmt.Errorf("%s:%d: %v", path, line, err)
		}
		// ParseFloat accepts "NaN" and "Inf"; x-x is 0 only for finite x.
		if x-x != 0 || y-y != 0 {
			return nil, fmt.Errorf("%s:%d: coordinates must be finite", path, line)
		}
		pts = append(pts, geom.Pt(x, y))
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return pts, nil
}
