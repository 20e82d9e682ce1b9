// Package nbrcache is a shared, concurrency-safe neighborhood cache for
// group nearest neighbor searches: co-located groups planning over one
// POI index stop recomputing the same best-first R-tree traversals.
//
// # Keying and what an entry stores
//
// The cache quantizes a group's centroid to a square tile of side
// Config.TileSize. An entry is keyed by (tile, aggregate, k) and stores
// the J ≥ k POIs nearest to the *tile center* q, in ascending distance
// order, together with the distance of the J-th (the guarantee radius:
// every POI absent from the entry is at least that far from q) and the
// R-tree version the traversal ran against. The entry therefore depends
// only on the tile and the index — not on any particular group — so
// every group whose centroid falls in the tile can be served from it.
//
// # Why a hit is still exact
//
// A cached entry is a candidate superset, not an answer: the top-k
// result set of a specific group depends on its exact member locations.
// On a hit the cache computes the true aggregate distance of every
// cached POI for the requesting members (the same float arithmetic as
// the traversal) and selects the best k. The selection is then
// certified with the triangle inequality: for any uncached POI p and
// member u, ‖p,u‖ ≥ ‖p,q‖ − ‖u,q‖ ≥ last − ‖u,q‖, so
//
//	MAX: ‖p,U‖max ≥ last − min_i ‖u_i,q‖  (the max dominates every member,
//	     so the bound through the member nearest q is the tight one)
//	SUM: ‖p,U‖sum ≥ m·last − Σ_i ‖u_i,q‖
//
// where last is the guarantee radius. If the k-th best cached aggregate
// beats that bound strictly, no uncached POI can enter the top-k and
// the extracted set is byte-identical to what the traversal would
// return: distances come from the identical gnn.Aggregate.PointDist
// calls, order is ascending, and a selection containing (or bounded by)
// an exact distance tie — whose order the traversal's heap would decide
// — is never certified. When certification fails, for spread or for
// ties, the lookup falls back to the real traversal (a hit that fails
// counts as a rejection).
//
// Downstream, safe-region planning re-verifies every tile against the
// requesting group's actual members (Divide-Verify), so even the
// certified result set is never trusted blindly by the planner.
//
// # Adaptive entry depth
//
// A rejection is informative: once the fallback traversal reveals the
// group's true k-th aggregate distance, the exact guarantee radius that
// WOULD have certified the group is known (kth + min_i‖u_i,q‖ for MAX,
// (kth + Σ_i‖u_i,q‖)/m for SUM). The cache records the deepest such
// radius per key (bounded per stripe) and the key's next repopulation
// grows J geometrically until the retrieved radius covers it — capped
// by Config.MaxDepthFactor — so tiles frequented by spread-out groups
// converge to a depth that serves them instead of rejecting forever,
// while tight-group tiles stay at the cheap static depth.
//
// Depth also decays. Every certified hit on a deepened entry reveals the
// radius that certification actually used; when a sustained streak of
// hits never needs more than half the recorded radius — the spread-out
// groups that forced the depth have moved on — the hint decays to what
// the streak needed, and the key's next repopulation lands back near the
// static depth instead of paying the deep traversal forever.
// Stats.DepthHints, Stats.DepthGrows, and Stats.DepthShrinks count the
// feedback loop.
//
// # Invalidation
//
// Entries record the exact (tree, version) pair they were computed
// from, so a lookup against any other index state observes the mismatch
// and repopulates — a stale entry can never be served. How entries cross
// a version transition depends on the writer:
//
//   - Unaware writers (anyone mutating a tree in place without telling
//     the cache) get the conservative behavior: the version mismatch
//     kills the entry on its next lookup.
//   - Snapshot writers (core.Planner's batched mutation path) call
//     Advance with the mutated POI locations. An entry's guarantee
//     radius localizes what it depends on: the entry asserts facts only
//     about POIs within distance last of its tile center, so a mutation
//     strictly outside that disk cannot change the entry's items or
//     weaken its guarantee. Advance therefore evicts only entries that a
//     mutated point actually reaches (or complete entries, which assert
//     the absence of any uncached POI) and migrates every other entry to
//     the new (tree, version) in place — localized churn leaves the rest
//     of the cache hot. Stats.ChurnEvicted and Stats.ChurnMigrated count
//     the split.
//
// A migrated entry also remembers the one (tree, version) it migrated
// away from: a straggler reader still pinned to the previous snapshot
// recognizes the entry as migrated-forward and treats it as a plain miss
// instead of destroying it, and its repopulation is served privately
// rather than displacing the newer entry. One generation of memory
// suffices because the snapshot writer never publishes version N+1 until
// all readers of N−1 have drained.
//
// # Concurrency and memory
//
// The table is lock-striped by key hash. An entry's payload (items,
// guarantee radius, tile center) is immutable once published; only its
// (tree, version) pinning mutates, and only under the stripe lock that
// every lookup's staleness check already holds. Distance arithmetic
// never runs under a lock, so lookups from many engine workers contend
// only on the few nanoseconds of LRU touch. Each stripe evicts
// least-recently-used entries beyond its share of Config.MaxBytes.
package nbrcache

import (
	"math"
	"sync"
	"sync/atomic"

	"mpn/internal/geom"
	"mpn/internal/gnn"
	"mpn/internal/rtree"
)

// Config sizes the cache. The zero value of any field selects its
// default.
type Config struct {
	// TileSize is the quantization of group centroids: groups whose
	// centroids share a tile share entries. Smaller tiles tighten the
	// certification bound (higher hit rate for tight groups) but fragment
	// sharing. Default 1/128 of the unit domain.
	TileSize float64
	// MaxBytes bounds the cache's retained entry bytes (approximate:
	// items plus fixed per-entry overhead), split evenly across stripes.
	// Default 8 MiB.
	MaxBytes int64
	// Stripes is the lock-stripe count. Default 16.
	Stripes int
	// MaxDepthFactor bounds the adaptive entry depth: a certification
	// rejection records the guarantee radius the rejecting group would
	// have needed, and the key's next repopulation deepens J
	// geometrically (one extra point-kNN per doubling) until that radius
	// is covered, capped at k·MaxDepthFactor + depthSlack. Values at or
	// below depthFactor disable growth. Default 64.
	MaxDepthFactor int
}

// depthFactor and depthSlack set an entry's starting depth J =
// k·depthFactor + depthSlack. Deeper entries certify more spread-out
// groups at the cost of more distance computations per hit.
const (
	depthFactor = 4
	depthSlack  = 16
)

func (c Config) withDefaults() Config {
	if c.TileSize <= 0 {
		c.TileSize = 1.0 / 128
	}
	if c.MaxBytes <= 0 {
		c.MaxBytes = 8 << 20
	}
	if c.Stripes <= 0 {
		c.Stripes = 16
	}
	if c.MaxDepthFactor <= 0 {
		c.MaxDepthFactor = 64
	}
	return c
}

// Stats is a snapshot of the cache's counters.
type Stats struct {
	// Hits counts lookups served (and certified) from a pre-existing
	// entry — each one is an index traversal that never happened.
	Hits uint64
	// Misses counts lookups that found no usable entry (absent or stale)
	// and populated one with a fresh point-kNN traversal; when the fresh
	// entry cannot certify the requesting group, the extra fallback
	// traversal is part of the miss. Hits+Misses+Rejected is the total
	// lookup count: each lookup increments exactly one.
	Misses uint64
	// Stale counts the subset of misses whose entry existed but recorded
	// an old R-tree version.
	Stale uint64
	// Rejected counts lookups that found a pre-existing entry but could
	// not certify the requesting group against it — too spread for the
	// entry depth — and fell back to a full aggregate traversal.
	Rejected uint64
	// Evictions counts entries dropped by the LRU byte budget.
	Evictions uint64
	// DepthHints counts certification rejections that recorded (or
	// deepened) the guarantee radius the rejecting group would have
	// needed — the adaptive-depth feedback signal.
	DepthHints uint64
	// DepthGrows counts repopulations that deepened an entry beyond the
	// static k·depthFactor+depthSlack to satisfy a recorded hint.
	DepthGrows uint64
	// DepthShrinks counts depth-hint decays: a sustained streak of
	// certified hits on a deepened entry never needed the recorded
	// radius, so the hint decayed and the key's next repopulation lands
	// back toward the static depth.
	DepthShrinks uint64
	// ChurnEvicted and ChurnMigrated split the entries that Advance saw
	// on an index version transition: evicted entries were within a
	// mutated point's reach (or complete) and died; migrated entries were
	// provably unaffected and survived onto the new (tree, version).
	ChurnEvicted  uint64
	ChurnMigrated uint64
	// Entries and Bytes describe current occupancy.
	Entries int
	Bytes   int64
}

// Scratch carries one goroutine's reusable lookup state. The zero value
// is ready to use; not safe for concurrent use.
type Scratch struct {
	qpt  [1]geom.Point
	fill []gnn.Result
}

type key struct {
	tx, ty int32
	agg    gnn.Aggregate
	k      int32
}

// entry is a cached neighborhood. Its payload (q, items, last, complete)
// is immutable once published, so readers use it without holding the
// stripe lock; the (tree, version) pinning mutates when Advance migrates
// the entry across an index version transition, but only under the
// stripe lock that every lookup's staleness check holds anyway.
type entry struct {
	key key
	// tree and version pin the entry to the exact index it was computed
	// from (or migrated to): a version number alone cannot distinguish
	// two different trees (every fresh bulk load restarts at version 0),
	// so a cache shared across planners would otherwise serve one tree's
	// neighborhoods — and certify against its guarantee radius — for
	// another's. Holding the pointer (rather than an address-derived id)
	// also rules out ABA reuse; it pins a replaced tree until the entry
	// is evicted or invalidated, which the LRU bounds.
	tree    *rtree.Tree
	version uint64
	// prevTree and prevVersion remember the one index state the entry
	// last migrated away from, so a straggler reader still pinned to the
	// previous snapshot sees a miss instead of destroying the migrated
	// entry. One generation suffices: the snapshot writer drains readers
	// of N−1 before publishing N+1.
	prevTree    *rtree.Tree
	prevVersion uint64

	q        geom.Point   // tile center the items were retrieved around
	items    []rtree.Item // J nearest POIs to q, ascending distance
	last     float64      // distance of items[len-1] to q (guarantee radius)
	complete bool         // the whole data set is cached: no uncached POI exists
	bytes    int64

	prev, next *entry // stripe LRU list (most recent at head)
}

const entryOverhead = 96 // approximate fixed entry + map slot cost

// maxNeedPerStripe bounds the adaptive-depth hint map: a stripe tracks
// at most this many keys' needed radii, so a scan over many tiles cannot
// grow unbounded bookkeeping.
const maxNeedPerStripe = 512

// depthHint is one key's adaptive-depth state: the guarantee radius the
// next repopulation must cover (grown by rejections, decayed by hit
// streaks) and the running shrink window over certified hits on a
// deepened entry.
type depthHint struct {
	radius float64 // guarantee radius repopulation must cover
	streak uint32  // consecutive certified hits on a deepened entry
	hitMax float64 // deepest radius any hit in the streak actually needed
}

type stripe struct {
	mu     sync.Mutex
	table  map[key]*entry
	head   *entry // most recently used
	tail   *entry // least recently used
	bytes  int64
	budget int64
	// need records, per key, the adaptive-depth hint (see recordNeed and
	// recordHitDepth); the key's next repopulation grows its depth until
	// the hinted radius is covered.
	need map[key]depthHint
}

// Cache is the shared neighborhood cache. All methods are safe for
// concurrent use. A nil *Cache is valid and degrades every lookup to
// the plain traversal.
type Cache struct {
	cfg     Config
	stripes []stripe

	hits          atomic.Uint64
	misses        atomic.Uint64
	stale         atomic.Uint64
	rejected      atomic.Uint64
	evictions     atomic.Uint64
	depthHints    atomic.Uint64
	depthGrows    atomic.Uint64
	depthShrinks  atomic.Uint64
	churnEvicted  atomic.Uint64
	churnMigrated atomic.Uint64
}

// New builds a cache from cfg (zero fields select defaults).
func New(cfg Config) *Cache {
	cfg = cfg.withDefaults()
	c := &Cache{cfg: cfg, stripes: make([]stripe, cfg.Stripes)}
	budget := cfg.MaxBytes / int64(cfg.Stripes)
	if budget < 1 {
		budget = 1
	}
	for i := range c.stripes {
		c.stripes[i].table = make(map[key]*entry)
		c.stripes[i].budget = budget
	}
	return c
}

// Stats returns a snapshot of the counters and occupancy.
func (c *Cache) Stats() Stats {
	if c == nil {
		return Stats{}
	}
	s := Stats{
		Hits:          c.hits.Load(),
		Misses:        c.misses.Load(),
		Stale:         c.stale.Load(),
		Rejected:      c.rejected.Load(),
		Evictions:     c.evictions.Load(),
		DepthHints:    c.depthHints.Load(),
		DepthGrows:    c.depthGrows.Load(),
		DepthShrinks:  c.depthShrinks.Load(),
		ChurnEvicted:  c.churnEvicted.Load(),
		ChurnMigrated: c.churnMigrated.Load(),
	}
	for i := range c.stripes {
		st := &c.stripes[i]
		st.mu.Lock()
		s.Entries += len(st.table)
		s.Bytes += st.bytes
		st.mu.Unlock()
	}
	return s
}

// TileSize returns the resolved centroid quantization.
func (c *Cache) TileSize() float64 { return c.cfg.TileSize }

// keyFor quantizes the group centroid and returns the key and the tile
// center q.
func (c *Cache) keyFor(users []geom.Point, agg gnn.Aggregate, k int) (key, geom.Point) {
	var cx, cy float64
	for _, u := range users {
		cx += u.X
		cy += u.Y
	}
	inv := 1 / float64(len(users))
	cx *= inv
	cy *= inv
	tx := int32(math.Floor(cx / c.cfg.TileSize))
	ty := int32(math.Floor(cy / c.cfg.TileSize))
	q := geom.Pt((float64(tx)+0.5)*c.cfg.TileSize, (float64(ty)+0.5)*c.cfg.TileSize)
	return key{tx: tx, ty: ty, agg: agg, k: int32(k)}, q
}

func (c *Cache) stripeOf(k key) *stripe {
	h := uint64(uint32(k.tx))*0x9e3779b97f4a7c15 ^
		uint64(uint32(k.ty))*0xc2b2ae3d27d4eb4f ^
		uint64(k.agg)<<32 ^ uint64(uint32(k.k))
	h ^= h >> 29
	h *= 0xbf58476d1ce4e5b9
	h ^= h >> 32
	return &c.stripes[h%uint64(len(c.stripes))]
}

// TopKInto returns the top-k aggregate nearest neighbors for users,
// byte-identical to gnn.TopKInto over the same tree: served from the
// cache when an entry for the group's centroid tile certifies the
// result, populated (one point-kNN traversal around the tile center)
// on a miss, and computed with the plain aggregate traversal when
// certification fails. out is the caller-owned result buffer, cs the
// caller's reusable scratch; after both have grown to working size the
// hit path performs no allocations.
func (c *Cache) TopKInto(t *rtree.Tree, gs *gnn.Scratch, cs *Scratch, users []geom.Point, agg gnn.Aggregate, k int, out []gnn.Result) []gnn.Result {
	if c == nil || k <= 0 || len(users) == 0 {
		return gnn.TopKInto(t, gs, users, agg, k, out)
	}
	ky, q := c.keyFor(users, agg, k)
	ver := t.Version()
	st := c.stripeOf(ky)

	st.mu.Lock()
	e := st.table[ky]
	if e != nil && (e.tree != t || e.version != ver) {
		if e.prevTree == t && e.prevVersion == ver {
			// The entry migrated forward past this reader's pinned
			// snapshot. The reader is the straggler, not the entry: treat
			// it as a plain miss and leave the migrated entry alone.
			e = nil
		} else {
			st.remove(e)
			e = nil
		}
		c.stale.Add(1)
	}
	if e != nil {
		st.touch(e)
	}
	st.mu.Unlock()

	// Counter discipline: every lookup increments exactly one of Hits
	// (served from a pre-existing entry), Rejected (a pre-existing entry
	// could not certify this group), or Misses (no usable entry; the
	// fallback traversal after a fresh entry fails certification is part
	// of the miss cost) — so Hits+Misses+Rejected is the lookup count.
	hit := e != nil
	if e == nil {
		c.misses.Add(1)
		e = c.populate(t, gs, cs, ky, q, k, ver)
	}
	if e != nil {
		if res, ok := extract(e, users, agg, k, out); ok {
			if hit {
				c.hits.Add(1)
			}
			if len(e.items) > k*depthFactor+depthSlack && len(res) >= k {
				// A certified hit on a deepened entry reveals how much
				// radius this group actually needed; feed the shrink
				// window so depth forced by long-gone spread-out groups
				// decays instead of taxing every repopulation forever.
				c.recordHitDepth(ky, e.q, users, agg, res[k-1].Dist)
			}
			return res
		}
		if hit {
			c.rejected.Add(1)
		}
	}
	res := gnn.TopKInto(t, gs, users, agg, k, out)
	if e != nil && !e.complete && len(res) >= k {
		// The entry could not certify this group. The fallback traversal
		// just revealed the true k-th aggregate, which pins down exactly
		// the guarantee radius a deeper entry would have needed; record
		// it so the key's next repopulation grows to cover groups like
		// this one.
		c.recordNeed(ky, e.q, users, agg, res[k-1].Dist)
	}
	return res
}

// needFor is the guarantee radius that certifies a lookup whose k-th
// aggregate distance is kth: from the certification bound, an entry
// certifies the group iff its radius exceeds kth + min_i‖u_i,q‖ (MAX)
// or (kth + Σ_i‖u_i,q‖)/m (SUM).
func needFor(q geom.Point, users []geom.Point, agg gnn.Aggregate, kth float64) float64 {
	minD := math.Inf(1)
	sumD := 0.0
	for _, u := range users {
		d := u.Dist(q)
		sumD += d
		if d < minD {
			minD = d
		}
	}
	if agg == gnn.Sum {
		return (kth + sumD) / float64(len(users))
	}
	return kth + minD
}

// recordNeed stores (or deepens) the guarantee radius that would have
// certified a rejected lookup. Bounded per stripe; an existing hint's
// radius only deepens here (decay is recordHitDepth's job), but any
// rejection closes the running shrink window — the key evidently still
// serves groups its depth cannot certify.
func (c *Cache) recordNeed(ky key, q geom.Point, users []geom.Point, agg gnn.Aggregate, kth float64) {
	need := needFor(q, users, agg, kth)
	st := c.stripeOf(ky)
	st.mu.Lock()
	h, known := st.need[ky]
	if known || len(st.need) < maxNeedPerStripe {
		grew := need > h.radius
		if grew {
			h.radius = need
		}
		h.streak, h.hitMax = 0, 0
		if grew || known {
			if st.need == nil {
				st.need = make(map[key]depthHint)
			}
			st.need[ky] = h
		}
		if grew {
			c.depthHints.Add(1)
		}
	}
	st.mu.Unlock()
}

// shrinkStreak is how many consecutive certified hits a deepened entry
// must serve — none needing more than half the hinted radius — before
// the hint decays to what the streak actually needed.
const shrinkStreak = 32

// recordHitDepth feeds the adaptive-depth shrink window after a
// certified hit on a deepened entry: when shrinkStreak consecutive hits
// all certified with at most half the hinted radius, the groups that
// forced the depth are gone, so the hint decays to the streak's deepest
// actual need and the key's next repopulation lands back toward the
// static depth.
func (c *Cache) recordHitDepth(ky key, q geom.Point, users []geom.Point, agg gnn.Aggregate, kth float64) {
	need := needFor(q, users, agg, kth)
	st := c.stripeOf(ky)
	st.mu.Lock()
	h, known := st.need[ky]
	if !known {
		// Nothing to decay: the depth did not come from a live hint.
		st.mu.Unlock()
		return
	}
	if need > h.hitMax {
		h.hitMax = need
	}
	h.streak++
	if h.streak >= shrinkStreak {
		if h.hitMax <= h.radius/2 {
			h.radius = h.hitMax
			c.depthShrinks.Add(1)
		}
		h.streak, h.hitMax = 0, 0
	}
	st.need[ky] = h
	st.mu.Unlock()
}

// populate retrieves the J nearest POIs to the tile center with a
// point-kNN traversal and publishes the entry. J starts at the static
// k·depthFactor+depthSlack; when a prior rejection recorded the radius a
// spread-out group needed (see recordNeed), the retrieval doubles J —
// one extra traversal per doubling, repopulations are rare — until the
// entry's guarantee radius strictly exceeds it, the data set is
// exhausted, or the MaxDepthFactor bound is hit. Returns nil on an
// empty tree.
func (c *Cache) populate(t *rtree.Tree, gs *gnn.Scratch, cs *Scratch, ky key, q geom.Point, k int, ver uint64) *entry {
	st0 := c.stripeOf(ky)
	st0.mu.Lock()
	need := st0.need[ky].radius
	st0.mu.Unlock()

	j := k*depthFactor + depthSlack
	maxJ := k*c.cfg.MaxDepthFactor + depthSlack
	cs.qpt[0] = q
	grew := false
	for {
		// A single-user MAX aggregate is a plain distance: the traversal
		// is an ordinary point kNN from the tile center.
		cs.fill = gnn.TopKInto(t, gs, cs.qpt[:1], gnn.Max, j, cs.fill[:0])
		if len(cs.fill) == 0 {
			return nil
		}
		if need == 0 || cs.fill[len(cs.fill)-1].Dist > need ||
			len(cs.fill) < j || j >= maxJ {
			break
		}
		j = min(j*2, maxJ)
		grew = true
	}
	if grew {
		c.depthGrows.Add(1)
	}
	items := make([]rtree.Item, len(cs.fill))
	for i, r := range cs.fill {
		items[i] = r.Item
	}
	e := &entry{
		key:      ky,
		tree:     t,
		version:  ver,
		q:        q,
		items:    items,
		last:     cs.fill[len(cs.fill)-1].Dist,
		complete: len(items) >= t.Len(),
		bytes:    entryOverhead + int64(len(items))*24,
	}
	st := c.stripeOf(ky)
	st.mu.Lock()
	if old := st.table[ky]; old != nil {
		if old.tree != t && old.prevTree == t && old.prevVersion == ver {
			// The published entry has already migrated past this reader's
			// pinned snapshot. Serve the straggler from its private entry
			// without displacing the newer one.
			st.mu.Unlock()
			return e
		}
		// A concurrent populate won the race; replace it (contents for
		// one (key, version) are identical) to keep accounting simple.
		st.remove(old)
	}
	st.insert(e)
	for st.bytes > st.budget && st.tail != nil && st.tail != e {
		st.remove(st.tail)
		c.evictions.Add(1)
	}
	st.mu.Unlock()
	return e
}

// Invalidation describes one published index mutation batch to Advance:
// the (tree, version) pair being retired, the pair that replaces it, and
// the locations every mutated POI (inserted or deleted) occupies. The
// snapshot writer guarantees the old pair is never planned against again
// once Advance returns.
type Invalidation struct {
	OldTree    *rtree.Tree
	OldVersion uint64
	NewTree    *rtree.Tree
	NewVersion uint64
	// Points holds the location of every POI the batch inserted or
	// deleted.
	Points []geom.Point
}

// Advance carries the cache across an index version transition. An entry
// pinned to the retired (tree, version) asserts facts only about the
// disk of radius last around its tile center — its items all lie inside
// it, and no uncached POI does — so a mutation strictly outside that
// disk can neither change the entry's items nor weaken its guarantee.
// Entries some mutated point reaches (boundary inclusive: an insert
// exactly at the guarantee radius could tie into the items) are evicted,
// as are complete entries, whose no-uncached-POI claim any insert
// violates; every other entry migrates to the new (tree, version) in
// place, remembering the retired pair for one generation so straggler
// readers miss instead of destroying it. Entries pinned to any other
// index state (older generations, unrelated planners) are untouched —
// their own staleness checks retire them.
func (c *Cache) Advance(inv Invalidation) {
	if c == nil {
		return
	}
	for i := range c.stripes {
		st := &c.stripes[i]
		st.mu.Lock()
		for _, e := range st.table {
			if e.tree != inv.OldTree || e.version != inv.OldVersion {
				continue
			}
			if churnReaches(e, inv.Points) {
				st.remove(e)
				c.churnEvicted.Add(1)
			} else {
				e.prevTree, e.prevVersion = e.tree, e.version
				e.tree, e.version = inv.NewTree, inv.NewVersion
				c.churnMigrated.Add(1)
			}
		}
		st.mu.Unlock()
	}
}

// churnReaches reports whether any mutated point can affect e: complete
// entries are reached by construction (they claim no uncached POI
// exists anywhere), others iff a point lands within the guarantee
// radius of the tile center.
func churnReaches(e *entry, pts []geom.Point) bool {
	if e.complete {
		return true
	}
	for _, p := range pts {
		if p.Dist(e.q) <= e.last {
			return true
		}
	}
	return false
}

// extract computes the exact aggregate distance of every cached POI for
// the requesting members, selects the best k in ascending order into
// out, and certifies that no uncached POI could displace any of them.
// On failure the returned slice is garbage the caller discards (the
// fallback traversal re-appends from the original buffer).
func extract(e *entry, users []geom.Point, agg gnn.Aggregate, k int, out []gnn.Result) ([]gnn.Result, bool) {
	// Select one past k so a tie sitting exactly on the k boundary is
	// observable below.
	out = out[:0]
	for _, it := range e.items {
		out = gnn.PushTopK(out, it, agg.PointDist(it.P, users), k+1)
	}
	// Exact aggregate-distance ties (duplicate POI coordinates, symmetric
	// layouts) are ordered by entry order here but by heap pop order in
	// the traversal, so byte-identity cannot be promised: a result set
	// containing (or bounded by) a tie is never certified.
	for i := 1; i < len(out); i++ {
		if out[i].Dist == out[i-1].Dist {
			return out, false
		}
	}
	if len(out) > k {
		out = out[:k]
	}
	if e.complete {
		// The entry holds the entire data set: out is exactly the
		// traversal's min(k, n) results.
		return out, true
	}
	if len(out) < k {
		return out, false
	}
	// Lower-bound the aggregate of every uncached POI from the guarantee
	// radius and the members' distances to the tile center. For MAX the
	// bound through the member NEAREST the tile center is the tight one:
	// max_i ‖p,u_i‖ ≥ ‖p,u_j‖ ≥ last − ‖u_j,q‖ for every j, maximized at
	// the smallest ‖u_j,q‖ — so one member near the tile center certifies
	// even a spread-out group.
	var minD, sumD float64
	minD = math.Inf(1)
	for _, u := range users {
		d := u.Dist(e.q)
		sumD += d
		if d < minD {
			minD = d
		}
	}
	lb := e.last - minD
	if agg == gnn.Sum {
		lb = float64(len(users))*e.last - sumD
	}
	// Strict: on a tie an uncached POI could legitimately appear in the
	// traversal's output, so equality does not certify.
	if out[k-1].Dist < lb {
		return out, true
	}
	return out, false
}

// insert links e at the LRU head and accounts its bytes. Caller holds mu.
func (st *stripe) insert(e *entry) {
	st.table[e.key] = e
	e.prev = nil
	e.next = st.head
	if st.head != nil {
		st.head.prev = e
	}
	st.head = e
	if st.tail == nil {
		st.tail = e
	}
	st.bytes += e.bytes
}

// remove unlinks e and drops it from the table. Caller holds mu.
func (st *stripe) remove(e *entry) {
	delete(st.table, e.key)
	if e.prev != nil {
		e.prev.next = e.next
	} else {
		st.head = e.next
	}
	if e.next != nil {
		e.next.prev = e.prev
	} else {
		st.tail = e.prev
	}
	e.prev, e.next = nil, nil
	st.bytes -= e.bytes
}

// touch moves e to the LRU head. Caller holds mu.
func (st *stripe) touch(e *entry) {
	if st.head == e {
		return
	}
	if e.prev != nil {
		e.prev.next = e.next
	}
	if e.next != nil {
		e.next.prev = e.prev
	} else {
		st.tail = e.prev
	}
	e.prev = nil
	e.next = st.head
	if st.head != nil {
		st.head.prev = e
	}
	st.head = e
}
