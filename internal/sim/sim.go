// Package sim drives the client-server architecture of Fig. 3: a server
// holding the POI R-tree, and a group of moving clients holding their
// current safe regions. It replays trajectories timestamp by timestamp,
// detects safe-region escapes, executes the three-message update protocol,
// and accounts update frequency, TCP packets, and server CPU time exactly
// as the paper's experiments do (Section 7.1, "Measures").
//
// Packet model: the maximum transmission unit is 576 bytes with a 40-byte
// header, so one packet carries (576−40)/8 = 67 double-precision values =
// 536 payload bytes. A circle costs three values; a tile region is shipped
// with the tileenc lossless compression, as the tile methods do in the
// paper [12]. With Config.DeltaWire the notification accounting follows
// the delta protocol of internal/proto instead: a member whose region
// content did not change receives a DeltaNotifyBytes stub rather than a
// re-encoded region.
package sim

import (
	"errors"
	"time"

	"mpn/internal/core"
	"mpn/internal/geom"
	"mpn/internal/gnn"
	"mpn/internal/mobility"
	"mpn/internal/tileenc"
)

// PacketPayload is the usable bytes per TCP packet: 67 doubles.
const PacketPayload = 536

// Method selects the safe-region strategy under test.
type Method int

const (
	// MethodCircle is Circle-MSR (Section 4).
	MethodCircle Method = iota
	// MethodTile is Tile-MSR with the undirected ordering.
	MethodTile
	// MethodTileD is Tile-MSR with the directed ordering (Tile-D).
	MethodTileD
)

// String implements fmt.Stringer.
func (m Method) String() string {
	switch m {
	case MethodCircle:
		return "Circle"
	case MethodTile:
		return "Tile"
	default:
		return "Tile-D"
	}
}

// Tile-D's per-user direction is learned from the trajectory.
const (
	// headingWindow is the number of recent steps used to estimate each
	// user's heading and deviation bound.
	headingWindow = 20
	// minTheta floors the learned deviation bound.
	minTheta = 0.5235987755982988 // π/6
)

// Config parameterizes one simulation run.
type Config struct {
	// Method is the safe-region strategy.
	Method Method
	// Core configures the planner (aggregate, α, L, buffer, pruning). The
	// Directed flag is forced to match Method.
	Core core.Options
	// MaxSteps truncates the trajectories (0 = full length), letting the
	// harness trade fidelity for wall-clock time.
	MaxSteps int
	// Incremental routes every recomputation through the incremental
	// planners (a PlanRequest carrying State), retaining the group's
	// plan state across updates — the maintenance protocol the paper's
	// independent safe regions propose. The default (false) keeps the
	// historical full-replan accounting, where every update regrows all
	// m regions from scratch.
	Incremental bool
	// DeltaWire models the delta notification protocol on the wire
	// (TNotifyDelta, internal/proto): a member whose region content did
	// not change since her last notification receives a small
	// region-less delta frame instead of a re-encoded region. Only
	// meaningful together with Incremental (without retained plan state
	// every region is fresh every update); plans and update counts are
	// unchanged — only the bytes/packets accounting moves.
	DeltaWire bool
}

// DeltaNotifyBytes is the modeled wire size of a region-less delta
// notification: length prefix, type, varint group/user/epoch, flags, and
// an empty region — ~10 bytes on the wire; 12 is the conservative model
// (matching the proto layer's worst case for small ids).
const DeltaNotifyBytes = 12

// Metrics aggregates one run's costs.
type Metrics struct {
	// Timestamps is the number of simulated ticks.
	Timestamps int
	// Updates counts server recomputations (including the initial
	// registration).
	Updates int
	// UplinkMessages counts client→server messages (location reports and
	// probe replies).
	UplinkMessages int
	// DownlinkMessages counts server→client messages (probe requests and
	// result notifications).
	DownlinkMessages int
	// Packets is the total TCP packet count across all messages.
	Packets int
	// ServerCPU is the cumulative safe-region computation time.
	ServerCPU time.Duration
	// RegionBytes is the total encoded safe-region payload shipped.
	RegionBytes int
	// PlanStats accumulates planner work counters.
	PlanStats core.Stats
	// FullReplans, PartialReplans and KeptPlans break Updates down by
	// incremental outcome. Without Config.Incremental every update is a
	// full replan.
	FullReplans    int
	PartialReplans int
	KeptPlans      int
	// FullNotifies and DeltaNotifies break the downlink result
	// notifications down by wire form: a full notify re-ships the
	// member's encoded region, a delta notify (Config.DeltaWire, region
	// unchanged) ships the DeltaNotifyBytes stub. Without DeltaWire
	// every notification is full.
	FullNotifies  int
	DeltaNotifies int
}

// UpdateFrequency returns updates per 1,000 timestamps, the paper's
// update-frequency measure.
func (m Metrics) UpdateFrequency() float64 {
	if m.Timestamps == 0 {
		return 0
	}
	return float64(m.Updates) * 1000 / float64(m.Timestamps)
}

// PacketsPerK returns packets per 1,000 timestamps (communication cost).
func (m Metrics) PacketsPerK() float64 {
	if m.Timestamps == 0 {
		return 0
	}
	return float64(m.Packets) * 1000 / float64(m.Timestamps)
}

// CPUPerUpdate returns the average safe-region computation time per
// update.
func (m Metrics) CPUPerUpdate() time.Duration {
	if m.Updates == 0 {
		return 0
	}
	return m.ServerCPU / time.Duration(m.Updates)
}

// Errors returned by Run.
var (
	ErrNoGroup      = errors.New("sim: empty user group")
	ErrShortTraject = errors.New("sim: trajectory too short")
)

// Run replays the group's trajectories against the POI set and returns the
// accumulated metrics. All trajectories are truncated to the shortest one
// (and to cfg.MaxSteps if set).
func Run(points []geom.Point, group []mobility.Trajectory, cfg Config) (Metrics, error) {
	if len(group) == 0 {
		return Metrics{}, ErrNoGroup
	}
	steps := len(group[0])
	for _, tr := range group {
		if len(tr) < steps {
			steps = len(tr)
		}
	}
	if cfg.MaxSteps > 0 && cfg.MaxSteps < steps {
		steps = cfg.MaxSteps
	}
	if steps < 2 {
		return Metrics{}, ErrShortTraject
	}
	cfg.Core.Directed = cfg.Method == MethodTileD

	planner, err := core.NewPlanner(points, cfg.Core)
	if err != nil {
		return Metrics{}, err
	}

	s := &session{
		planner: planner,
		group:   group,
		cfg:     cfg,
		m:       len(group),
		ws:      core.NewWorkspace(),
	}

	var met Metrics
	met.Timestamps = steps

	// Initial registration at t=0: every user reports in, the server
	// computes and distributes the first result.
	s.update(0, &met, true)

	for t := 1; t < steps; t++ {
		escaped := false
		for i, tr := range group {
			if !s.regions[i].Contains(tr[t]) {
				escaped = true
				break
			}
		}
		if escaped {
			s.update(t, &met, false)
		}
	}
	return met, nil
}

// session is the mutable server/client state of one run.
type session struct {
	planner *core.Planner
	group   []mobility.Trajectory
	cfg     Config
	m       int
	// regions is the last distributed plan: the DeltaWire accounting
	// compares each fresh region with it, as the coordinator compares
	// each member's region with the one it last sent her.
	regions []core.SafeRegion

	// Incremental-protocol state: the retained plan and the reusable
	// workspace (the real server's workers hold one each; the simulated
	// server holds one per run).
	state core.PlanState
	ws    *core.Workspace
}

// update executes the three-step protocol of Fig. 3 at timestamp t and
// refreshes the safe regions.
func (s *session) update(t int, met *Metrics, initial bool) {
	met.Updates++

	// Step 1: the escaping user reports her location (one uplink message,
	// 2 values). At registration every user reports.
	reporters := 1
	if initial {
		reporters = s.m
	}
	met.UplinkMessages += reporters
	met.Packets += reporters // 16 bytes each, one packet per message

	// Step 2: the server probes the other users (downlink requests) and
	// receives their locations (uplink replies).
	probed := s.m - reporters
	if probed > 0 {
		met.DownlinkMessages += probed
		met.UplinkMessages += probed
		met.Packets += 2 * probed
	}

	users := make([]geom.Point, s.m)
	for i, tr := range s.group {
		users[i] = tr[t]
	}

	// Step 3: recompute the meeting point and safe regions (timed — this
	// is the paper's "running time per update"). With Config.Incremental
	// the recomputation runs the paper's maintenance protocol: the
	// retained plan state is validated against the fresh locations and
	// only what the movement invalidated is regrown.
	start := time.Now()
	var dirs []core.Direction
	if s.cfg.Method == MethodTileD {
		// Heading estimation stays inside the timed window: it is part of
		// the per-update server cost the figures have always charged to
		// Tile-D.
		dirs = make([]core.Direction, s.m)
		for i, tr := range s.group {
			dirs[i] = core.Direction{
				Angle: mobility.Heading(tr, t, headingWindow),
				Theta: mobility.DeviationBound(tr, t, headingWindow, minTheta),
			}
		}
	}
	req := core.PlanRequest{Kind: core.KindTiles, Users: users, Dirs: dirs}
	if s.cfg.Method == MethodCircle {
		req.Kind = core.KindCircle
	}
	if s.cfg.Incremental {
		req.State = &s.state
	}
	plan, out, err := s.planner.Plan(s.ws, req)
	met.ServerCPU += time.Since(start)
	switch out {
	case core.IncKept:
		met.KeptPlans++
	case core.IncPartial:
		met.PartialReplans++
	default:
		met.FullReplans++
	}
	if err != nil {
		// Cannot happen with validated inputs; fall back to point regions
		// so the simulation can proceed.
		plan.Regions = make([]core.SafeRegion, s.m)
		for i, u := range users {
			plan.Regions[i] = core.TileRegion(geom.Rect{Min: u, Max: u})
		}
	}
	met.PlanStats.Add(plan.Stats)
	prev := s.regions
	s.regions = plan.Regions

	// Notify every user: meeting point (2 values) + her safe region — or,
	// under the delta protocol, a region-less delta frame for every
	// member whose region content did not change since the last
	// distribution (the coordinator never re-encodes or re-ships an
	// unchanged region).
	for i, r := range plan.Regions {
		unchanged := s.cfg.DeltaWire && s.cfg.Incremental && !initial &&
			i < len(prev) && prev[i].Equal(r)
		met.DownlinkMessages++
		if unchanged {
			met.DeltaNotifies++
			met.Packets += (DeltaNotifyBytes + PacketPayload - 1) / PacketPayload
			continue
		}
		met.FullNotifies++
		bytes := 16 + regionBytes(r)
		met.RegionBytes += regionBytes(r)
		met.Packets += (bytes + PacketPayload - 1) / PacketPayload
	}
}

// regionBytes is the encoded payload size of a safe region: three doubles
// for a circle, tileenc's encoding (which derives δ itself) for tile
// regions.
func regionBytes(r core.SafeRegion) int {
	if r.Kind == core.KindCircle {
		return 24
	}
	return len(tileenc.Encode(r.Tiles))
}

// MethodConfig builds the Config for one of the paper's named
// configurations: Circle, Tile, Tile-D, and their buffered variants
// (buffer > 0 yields Tile-D-b when directed). agg selects MPN or Sum-MPN.
func MethodConfig(method Method, agg gnn.Aggregate, buffer int) Config {
	opts := core.DefaultOptions()
	opts.Aggregate = agg
	opts.Buffer = buffer
	return Config{Method: method, Core: opts}
}
