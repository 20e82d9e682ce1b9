package core

import (
	"errors"
	"fmt"
	"math"
	"sync"
	"sync/atomic"

	"mpn/internal/geom"
	"mpn/internal/gnn"
	"mpn/internal/rtree"
)

// Errors returned by the planners.
var (
	ErrNoUsers = errors.New("core: no users in group")
	ErrNoPOIs  = errors.New("core: POI set is empty")
)

// Options configure the safe-region planners. The zero value is not
// usable; start from DefaultOptions.
type Options struct {
	// Aggregate selects MPN (Max) or Sum-MPN (Sum).
	Aggregate gnn.Aggregate

	// TileLimit is α of Algorithm 3: the maximum number of tile-growing
	// rounds per user. The paper's default is 30.
	TileLimit int

	// SplitLevel is L of Algorithm 2: how many times a rejected tile is
	// quartered and retried. The paper's default is 2.
	SplitLevel int

	// Directed enables the directed tile ordering of Fig. 8, which only
	// grows tiles whose subtended angle at the user deviates from her
	// recent heading by at most Theta.
	Directed bool

	// Theta is the angular deviation bound (radians) for the directed
	// ordering. Ignored unless Directed is set.
	Theta float64

	// Buffer is b of Section 5.4: the number of best GNNs retrieved once
	// per computation and used for all verifications (Theorems 4 and 7,
	// Algorithm 5). Zero disables buffering, in which case every
	// Divide-Verify call retrieves candidates from the R-tree.
	Buffer int

	// GroupVerify selects GT-Verify (Theorem 2) when true, and the naive
	// IT-Verify enumeration of all tile groups when false. IT-Verify is
	// exponential in the group size and exists for the ablation study.
	GroupVerify bool

	// IndexPruning enables the Theorem 3 / Theorem 6 candidate pruning
	// during R-tree retrieval. Disabling it scans the entire POI set on
	// every verification (ablation).
	IndexPruning bool
}

// DefaultOptions returns the paper's default configuration (Table 2):
// α=30, L=2, undirected ordering, GT-Verify, index pruning on, buffering
// off (enable by setting Buffer, the paper recommends 10–100 with 100 as
// the default when buffering is in play).
func DefaultOptions() Options {
	return Options{
		Aggregate:    gnn.Max,
		TileLimit:    30,
		SplitLevel:   2,
		Directed:     false,
		Theta:        math.Pi / 4,
		Buffer:       0,
		GroupVerify:  true,
		IndexPruning: true,
	}
}

// Validate reports a configuration error, if any.
func (o Options) Validate() error {
	if o.TileLimit < 0 {
		return fmt.Errorf("core: negative TileLimit %d", o.TileLimit)
	}
	if o.SplitLevel < 0 {
		return fmt.Errorf("core: negative SplitLevel %d", o.SplitLevel)
	}
	if o.Buffer < 0 {
		return fmt.Errorf("core: negative Buffer %d", o.Buffer)
	}
	if o.Directed && (o.Theta <= 0 || o.Theta > math.Pi) {
		return fmt.Errorf("core: Theta %v out of (0, π]", o.Theta)
	}
	return nil
}

// Stats counts the work performed by one safe-region computation. The
// experiment harness aggregates these across updates.
type Stats struct {
	// IndexVersion is the POI-index mutation version the computation ran
	// against: every traversal, candidate set, and region of the plan
	// came from the single immutable snapshot carrying this version.
	IndexVersion uint64
	// GNNCalls counts top-k GNN searches issued to the R-tree.
	GNNCalls int
	// IndexAccesses counts R-tree traversals for candidate retrieval
	// (the quantity the buffering optimization drives to zero after the
	// initial GNN).
	IndexAccesses int
	// CandidatesChecked counts the candidate points handed to tile
	// verification, summed over the tile attempts that reached it.
	CandidatesChecked int
	// TileVerifies counts Tile-Verify invocations: one per (attempted
	// tile, candidate) pair actually decided — an attempt stops at its
	// first rejecting candidate.
	TileVerifies int
	// TilesAccepted counts tiles (including sub-tiles) added to regions.
	TilesAccepted int
	// TilesRejected counts the Divide-Verify nodes, at any split level,
	// that contributed nothing to the region: a level-0 tile that failed
	// verification, a tile all four of whose quadrants were rejected, a
	// tile no buffer slot covers (Algorithm 5, lines 3–4) — and, once
	// each however deep it is, a subtree the pre-reject proved dead
	// without visiting it (see deadSubtree). A tile that fails but
	// yields an accepted sub-tile is in neither count.
	TilesRejected int
}

// Add accumulates other into s. IndexVersion is not additive: the merged
// value is the newest version any accumulated computation saw.
func (s *Stats) Add(other Stats) {
	if other.IndexVersion > s.IndexVersion {
		s.IndexVersion = other.IndexVersion
	}
	s.GNNCalls += other.GNNCalls
	s.IndexAccesses += other.IndexAccesses
	s.CandidatesChecked += other.CandidatesChecked
	s.TileVerifies += other.TileVerifies
	s.TilesAccepted += other.TilesAccepted
	s.TilesRejected += other.TilesRejected
}

// Plan is the output of a safe-region computation: the optimal meeting
// point and one safe region per user (same order as the input users).
type Plan struct {
	Best    gnn.Result
	Regions []SafeRegion
	Stats   Stats
}

// Planner computes meeting points and safe regions against a mutable
// POI data set published as immutable snapshots. All mutable state of a
// computation lives in per-call structures and every computation pins
// one snapshot for its whole duration, so a Planner is safe for
// concurrent use by multiple goroutines (the public server shares one
// across groups) AND for planning concurrent with POI mutation (see
// ApplyPOIs): readers never block on a writer, and a writer never waits
// on more than one retired snapshot's readers.
type Planner struct {
	opts Options

	// netBackend answers KindNetRange requests (see RegisterNetBackend);
	// nil on Euclidean-only planners. Set once at server construction,
	// before concurrent planning begins.
	netBackend NetBackend

	// snap is the published snapshot all readers pin (see Acquire).
	snap atomic.Pointer[Snapshot]

	// Writer state, guarded by mu: the canonical slot-indexed point
	// table, tombstones, the running mutation count and the lagging
	// shadow buffer. External POI ids are assigned sequentially and never
	// reused; they equal table slots until the first id-space
	// compaction, after which extSlot/ids carry the indirection (see
	// ApplyPOIs).
	mu      sync.Mutex
	points  []geom.Point
	deleted []bool // nil until the first delete (and after a compaction)
	ndel    int
	nextExt int     // next external id to assign
	extSlot []int32 // ext→slot, -1 = deleted; nil until first compaction
	ids     []int   // slot→ext; nil until first compaction
	version uint64
	shadow  *shadowState

	// onMutate, when set, observes every applied ApplyPOIs batch (see
	// OnMutate); called with mu held.
	onMutate func(baseExt int, inserts []geom.Point, deleteIDs []int)
}

// NewPlanner builds a planner over the POI set points. The R-tree index is
// bulk loaded once (STR). Returns an error for an empty POI set or invalid
// options.
func NewPlanner(points []geom.Point, opts Options) (*Planner, error) {
	if len(points) == 0 {
		return nil, ErrNoPOIs
	}
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	items := make([]rtree.Item, len(points))
	for i, p := range points {
		items[i] = rtree.Item{P: p, ID: i}
	}
	own := make([]geom.Point, len(points))
	copy(own, points)
	pl := &Planner{opts: opts, points: own, nextExt: len(own)}
	pl.snap.Store(&Snapshot{
		tree:   rtree.Bulk(items, rtree.DefaultMaxEntries),
		points: own[:len(own):len(own)],
		live:   len(own),
	})
	return pl, nil
}

// Options returns the planner's configuration.
func (pl *Planner) Options() Options { return pl.opts }

// Tree exposes the current snapshot's R-tree. It is safe to traverse —
// a published tree is never mutated in place — but unpinned: a caller
// that needs the tree, points, and version to cohere across several
// reads should Acquire a snapshot instead.
func (pl *Planner) Tree() *rtree.Tree { return pl.snap.Load().tree }

// Points returns the current snapshot's slot-indexed point table. Slots
// of deleted POIs retain their last location; use Acquire and
// Snapshot.Deleted to distinguish them when the planner has seen
// deletions. Slots coincide with external POI ids until the planner's
// first id-space compaction densifies the table (see ApplyPOIs).
func (pl *Planner) Points() []geom.Point { return pl.snap.Load().points }

// NumPOIs returns the number of live (non-deleted) POIs.
func (pl *Planner) NumPOIs() int { return pl.snap.Load().live }

// OnMutate registers a hook observing every applied ApplyPOIs batch:
// called after the batch publishes, while the writer lock is still held,
// so batches are reported exactly once and in application order —
// replaying them through ApplyPOIs on a fresh planner reproduces the
// same external id assignment. baseExt is the external id the batch's
// first insert received (equivalently, the external id-space size
// before the batch); inserts and deleteIDs are the caller's arguments,
// valid only for the duration of the call. The hook must be fast and
// must not call back into the planner. The durable store's POI capture
// is the intended consumer: it encodes and enqueues without blocking.
func (pl *Planner) OnMutate(fn func(baseExt int, inserts []geom.Point, deleteIDs []int)) {
	pl.mu.Lock()
	pl.onMutate = fn
	pl.mu.Unlock()
}

// maxLayers is the tile-grid layer cap of the orderings, a safety bound
// on degenerate configurations: 4·TileLimit.
func (pl *Planner) maxLayers() int {
	if pl.opts.TileLimit == 0 {
		return 4
	}
	return 4 * pl.opts.TileLimit
}
