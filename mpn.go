package mpn

import (
	"errors"
	"fmt"

	"mpn/internal/core"
	"mpn/internal/engine"
	"mpn/internal/geom"
	"mpn/internal/netmpn"
	"mpn/internal/proto"
	"mpn/internal/roadnet"
	"mpn/internal/serving"
)

// RoadNetwork is an embedded road network for the NetRange method (see
// WithRoadNetwork). It aliases the internal type, so generated or
// hand-built networks flow into the public API without conversion.
type RoadNetwork = roadnet.Network

// RoadNetConfig parameterizes GenerateRoadNetwork.
type RoadNetConfig = roadnet.Config

// DefaultRoadNetConfig returns the standard synthetic grid-with-defects
// road network configuration.
func DefaultRoadNetConfig() RoadNetConfig { return roadnet.DefaultConfig() }

// GenerateRoadNetwork builds a synthetic embedded road network.
func GenerateRoadNetwork(cfg RoadNetConfig) (*RoadNetwork, error) { return roadnet.Generate(cfg) }

// Point is a planar location. It aliases the internal geometry type so
// values flow between the public API and the internal packages without
// conversion.
type Point = geom.Point

// Pt constructs a Point.
func Pt(x, y float64) Point { return geom.Pt(x, y) }

// SafeRegion is one user's safe region: as long as the user stays inside
// it, the group's meeting point cannot change. It aliases the internal
// region type; see Contains, MinDist, MaxDist.
type SafeRegion = core.SafeRegion

// Direction is a user's recent travel direction for the directed tile
// ordering: heading angle in radians and learned angular deviation bound.
type Direction = core.Direction

// Stats counts the work performed by safe-region computations.
type Stats = core.Stats

// ErrNoGroup is returned when operating on an empty user group.
var ErrNoGroup = errors.New("mpn: empty user group")

// ErrServerClosed is returned by group operations after Server.Close.
// It aliases the engine's sentinel, so errors.Is works across layers.
var ErrServerClosed = engine.ErrClosed

// ErrBadNetwork is returned by NewServer when the WithRoadNetwork graph
// is not undirected with one finite non-negative length per street (a
// missing reverse edge, two lengths for one street, a negative or
// non-finite length); the wrapping error names the edge. It aliases the
// network backend's sentinel, so errors.Is works across layers.
var ErrBadNetwork = netmpn.ErrBadNetwork

// ErrFixedPOIs is returned by UpdatePOIs on a road-network server
// (WithRoadNetwork), where InsertPOI and DeletePOI refuse too: its POI
// set is the network nodes given at construction, and the backend plans
// from distances it computed once for exactly those. It aliases the
// planner's sentinel, so errors.Is works across layers.
var ErrFixedPOIs = core.ErrFixedPOIs

// GroupID identifies a registered group within a Server's engine; it
// appears in notifications so subscribers can route them.
type GroupID = engine.GroupID

// Notification reports one completed recomputation on the engine's
// subscription stream: the group, its recomputation sequence number, the
// fresh meeting point and safe regions, how many submissions coalesced
// into the recomputation, whether the meeting point moved, and — on
// servers with WithIncremental — how much of the previous plan the
// recomputation reused (Notification.Outcome).
type Notification = engine.Notification

// ReplanOutcome reports how an incremental recomputation satisfied an
// update: ReplanFull (from-scratch replan), ReplanPartial (only
// invalidated regions regrown), or ReplanKept (the whole retained plan
// was still valid). Non-incremental servers always report ReplanFull.
type ReplanOutcome = core.IncOutcome

// Replan outcomes carried on Notification.Outcome.
const (
	ReplanFull    = core.IncFull
	ReplanPartial = core.IncPartial
	ReplanKept    = core.IncKept
)

// Subscription is one listener on a Server's notification stream; read
// Notification values from its C channel and Close it when done.
type Subscription = engine.Subscription

// Server owns a POI data set and answers meeting-point registrations. It
// is safe for concurrent use by multiple groups: registered groups live
// in a sharded concurrent engine whose worker pool recomputes safe
// regions asynchronously (see Group.SubmitUpdate and Subscribe).
type Server struct {
	st *serving.Stack
}

// NewServer indexes the POI set and returns a server. The default
// configuration is the paper's best method (directed tiles, α=30, L=2,
// buffering b=100, max-distance objective). Close releases the engine's
// worker goroutines.
func NewServer(pois []Point, opts ...Option) (*Server, error) {
	cfg := defaultConfig()
	for _, o := range opts {
		if err := o(&cfg); err != nil {
			return nil, err
		}
	}
	cfg.POIs = pois // ignored under NetRange (see WithRoadNetwork)
	st, err := serving.New(cfg.Config)
	if err != nil {
		return nil, fmt.Errorf("mpn: %w", err)
	}
	return &Server{st: st}, nil
}

// Counters is a snapshot of the engine's accounting: the run queue,
// shutdown, coalescing, and committed plans per ReplanOutcome.
type Counters = engine.Counters

// Counters reports the engine's counters — the observability face of
// SubmitUpdate's coalescing, WithCloseTimeout and WithIncremental.
func (s *Server) Counters() Counters { return s.st.Engine.Counters() }

// NumPOIs returns the indexed data set size.
func (s *Server) NumPOIs() int { return s.st.Planner.NumPOIs() }

// InsertPOI adds one POI to the live data set and returns its id (ids
// are assigned sequentially and never reused). It is safe to call
// concurrently with planning and with other mutations: the index is
// published as immutable snapshots, every computation runs entirely
// against the snapshot it started on, and the mutation becomes visible
// to computations that start after it. Groups keep their current safe
// regions until their next update recomputes them against the new set;
// on incremental servers that next update is a full replan (the
// retained plan's certificate does not cover the mutation). Each call
// publishes a snapshot — batch through UpdatePOIs when changing many.
// On a road-network server it returns -1 and changes nothing (see
// ErrFixedPOIs).
func (s *Server) InsertPOI(p Point) int { return s.st.Planner.InsertPOI(p) }

// DeletePOI removes the POI with the given id from the live data set.
// It reports false — and changes nothing — when id is out of range,
// already deleted, or the last remaining POI (the data set may never
// become empty), and on a road-network server (see ErrFixedPOIs).
// Concurrency semantics are those of InsertPOI.
func (s *Server) DeletePOI(id int) bool { return s.st.Planner.DeletePOI(id) }

// UpdatePOIs applies one batched mutation — inserts added to the data
// set, deleteIDs removed — atomically: the whole batch becomes visible
// as a single snapshot publication, and no computation ever observes a
// prefix of it. It returns the inserted POIs' ids, in order. The batch
// is rejected as a whole (with nothing applied) when a delete id is out
// of range, already deleted, repeated, or when the batch would empty
// the data set, and always on a road-network server (ErrFixedPOIs).
// Safe to call concurrently with planning and with other mutations.
func (s *Server) UpdatePOIs(inserts []Point, deleteIDs []int) ([]int, error) {
	ids, err := s.st.Planner.ApplyPOIs(inserts, deleteIDs)
	if err != nil {
		return nil, fmt.Errorf("mpn: %w", err)
	}
	return ids, nil
}

// Register creates a monitored group from the users' current locations and
// computes its first meeting point and safe regions. dirs is only
// consulted by the TileDirected method; nil means the default heading (a
// registration has no earlier locations to derive one from). The
// registration plan is also emitted to subscribers as the group's Seq-1
// notification.
func (s *Server) Register(users []Point, dirs []Direction) (*Group, error) {
	if len(users) == 0 {
		return nil, ErrNoGroup
	}
	id, err := s.st.Engine.Register(users, dirs)
	if err != nil {
		return nil, err
	}
	return &Group{server: s, id: id, size: len(users)}, nil
}

// Subscribe attaches a listener to the server's notification stream with
// the given channel buffer. Every recomputation — synchronous or
// asynchronous, for any group — emits one Notification. Sends never
// block: a subscriber that falls behind drops frames (Subscription
// counts them).
func (s *Server) Subscribe(buffer int) *Subscription {
	return s.st.Engine.Subscribe(buffer)
}

// Close stops the engine's workers — queued recomputations complete, but
// a submission accepted while its group was being recomputed may be
// discarded — and closes all subscription channels.
func (s *Server) Close() { s.st.Engine.Close() }

// Plan computes a one-shot meeting point and safe regions without creating
// a group. It is the stateless core of Register/Update, and refuses NaN
// and ±Inf locations with the error they return; scratch state is
// borrowed from the planning workspace pool, so repeated calls reach a
// steady state of a few allocations per plan (just the returned regions).
func (s *Server) Plan(users []Point, dirs []Direction) (Point, []SafeRegion, Stats, error) {
	if len(users) == 0 {
		return Point{}, nil, Stats{}, ErrNoGroup
	}
	if err := engine.CheckFinite(users); err != nil {
		return Point{}, nil, Stats{}, err
	}
	ws := core.GetWorkspace()
	defer core.PutWorkspace(ws)
	return s.st.Plan(ws, users, dirs)
}

// Group is one monitored user group: a handle over the server engine's
// sharded registry. Its methods are safe for concurrent use.
type Group struct {
	server *Server
	id     engine.GroupID
	size   int
}

// ID returns the group's engine identifier, matching Notification.Group
// on the subscription stream.
func (g *Group) ID() GroupID { return g.id }

// Size returns the number of users m.
func (g *Group) Size() int { return g.size }

// MeetingPoint returns the currently reported optimal meeting point.
func (g *Group) MeetingPoint() Point {
	return g.server.st.Engine.Meeting(g.id)
}

// Region returns user i's current safe region.
func (g *Group) Region(i int) SafeRegion {
	return g.server.st.Engine.Region(g.id, i)
}

// Regions returns a copy of all safe regions.
func (g *Group) Regions() []SafeRegion {
	return g.server.st.Engine.Regions(g.id)
}

// NeedsUpdate reports whether user i moving to loc escapes her safe region
// — the client-side trigger of the Fig. 3 protocol.
func (g *Group) NeedsUpdate(i int, loc Point) bool {
	return g.server.st.Engine.NeedsUpdate(g.id, i, loc)
}

// Update recomputes the meeting point and safe regions from all users'
// current locations (the server-side step after an escape), on the
// caller's goroutine. dirs is only consulted by TileDirected; nil means
// each user's heading is derived from the group's last planned locations
// (the bearing of her move since, within a cone of π/8). The result is
// visible through the accessors when Update returns, and is also emitted
// to subscribers.
func (g *Group) Update(users []Point, dirs []Direction) error {
	if len(users) != g.size {
		return fmt.Errorf("mpn: group has %d users, got %d locations", g.size, len(users))
	}
	return g.server.st.Engine.Update(g.id, users, dirs)
}

// SubmitUpdate schedules an asynchronous recomputation on the engine's
// worker pool and returns without waiting: a group sits in its shard's
// run queue at most once, so there is never a full queue to wait for.
// Bursts of submissions for the same group coalesce into a single
// recomputation over the latest locations; results arrive on the
// Server.Subscribe stream. dirs is read as Update reads it: nil headings
// are derived from the group's last planned locations.
func (g *Group) SubmitUpdate(users []Point, dirs []Direction) error {
	if len(users) != g.size {
		return fmt.Errorf("mpn: group has %d users, got %d locations", g.size, len(users))
	}
	return g.server.st.Engine.Submit(g.id, users, dirs)
}

// Unregister removes the group from the server's engine; queued
// recomputations for it are discarded and its accessors become
// conservative zero values.
func (g *Group) Unregister() { g.server.st.Engine.Unregister(g.id) }

// Updates returns how many times the group's result was recomputed
// (registration counts as the first).
func (g *Group) Updates() int {
	return g.server.st.Engine.Updates(g.id)
}

// Stats returns the accumulated computation counters.
func (g *Group) Stats() Stats {
	return g.server.st.Engine.Stats(g.id)
}

// EncodeRegion serializes a safe region for transmission: 25 bytes for a
// circle (1 tag byte + 3 little-endian float64s), 36 bytes for a network
// range region of one road segment (shared junctions sent once), the tile
// codec otherwise: a Tile or TileDirected region is its δ cells' lattice
// lines plus a quadtree per cell, ~40 bytes for 30 tiles. DecodeRegion
// reverses it exactly, bit for bit.
func EncodeRegion(r SafeRegion) []byte { return proto.EncodeRegion(r) }

// DecodeRegion parses an EncodeRegion payload.
func DecodeRegion(data []byte) (SafeRegion, error) { return proto.DecodeRegion(data) }
