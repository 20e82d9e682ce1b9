package mpn

import (
	"fmt"
	"math"
	"time"

	"mpn/internal/core"
	"mpn/internal/gnn"
	"mpn/internal/serving"
)

// Aggregate selects the meeting-point objective.
type Aggregate int

const (
	// MinimizeMax reports the POI minimizing the maximum user distance —
	// the meeting time objective (MPN, MAX-GNN).
	MinimizeMax Aggregate = iota
	// MinimizeSum reports the POI minimizing the total user distance —
	// the fuel/fairness objective (Sum-MPN, SUM-GNN).
	MinimizeSum
)

// String implements fmt.Stringer.
func (a Aggregate) String() string {
	if a == MinimizeMax {
		return "minimize-max"
	}
	return "minimize-sum"
}

func (a Aggregate) gnn() gnn.Aggregate {
	if a == MinimizeMax {
		return gnn.Max
	}
	return gnn.Sum
}

// Method selects the safe-region strategy.
type Method int

const (
	// TileDirected grows tile-based regions toward each user's travel
	// direction — the paper's best-performing method and the default.
	TileDirected Method = iota
	// Tile grows tile-based regions in all directions.
	Tile
	// Circle assigns every user a circle of the maximal common radius:
	// cheapest to compute, most frequent updates.
	Circle
	// NetRange computes the meeting point and safe regions under
	// shortest-path distance on a road network instead of Euclidean
	// distance: each user's region is the set of network positions within
	// a common network radius of her location. Requires WithRoadNetwork.
	NetRange
)

// String implements fmt.Stringer.
func (m Method) String() string {
	switch m {
	case Circle:
		return "circle"
	case Tile:
		return "tile"
	case NetRange:
		return "net-range"
	default:
		return "tile-directed"
	}
}

// config is the resolved server configuration: the serving stack's
// Config, which NewServer hands to serving.New unchanged.
type config struct{ serving.Config }

func defaultConfig() config {
	opts := core.DefaultOptions()
	opts.Directed = true
	opts.Buffer = 100 // the paper's recommended buffering default
	return config{serving.Config{Kind: core.KindTiles, Core: opts}}
}

// Option customizes a Server.
type Option func(*config) error

// WithMethod selects the safe-region strategy (default TileDirected).
func WithMethod(m Method) Option {
	return func(c *config) error {
		switch m {
		case Tile, TileDirected:
			c.Kind = core.KindTiles
		case Circle:
			c.Kind = core.KindCircle
		case NetRange:
			c.Kind = core.KindNetRange
		default:
			return fmt.Errorf("mpn: unknown method %d", m)
		}
		c.Core.Directed = m == TileDirected
		return nil
	}
}

// WithRoadNetwork supplies the road network the NetRange method plans
// over and selects that method. The POI set is the given network nodes
// (by index into net's node slice); the pois argument of NewServer is
// ignored for planning and may be nil. Safe regions become network range
// regions: the covered road segments within a common shortest-path
// radius of each member, encoded on the wire with the 'N' tag.
func WithRoadNetwork(net *RoadNetwork, poiNodes []int) Option {
	return func(c *config) error {
		if net == nil {
			return fmt.Errorf("mpn: nil road network")
		}
		if len(poiNodes) == 0 {
			return fmt.Errorf("mpn: road network POI node set is empty")
		}
		for _, n := range poiNodes {
			if n < 0 || n >= net.NumNodes() {
				return fmt.Errorf("mpn: POI node %d out of range [0, %d)", n, net.NumNodes())
			}
		}
		c.Network = net
		c.POINodes = poiNodes
		c.Kind = core.KindNetRange
		c.Core.Directed = false
		return nil
	}
}

// WithAggregate selects the objective (default MinimizeMax).
func WithAggregate(a Aggregate) Option {
	return func(c *config) error {
		if a != MinimizeMax && a != MinimizeSum {
			return fmt.Errorf("mpn: unknown aggregate %d", a)
		}
		c.Core.Aggregate = a.gnn()
		return nil
	}
}

// WithTileLimit sets α, the number of tile-growing rounds per user
// (default 30). Larger values yield larger regions and fewer updates at
// higher server cost.
func WithTileLimit(alpha int) Option {
	return func(c *config) error {
		if alpha < 1 {
			return fmt.Errorf("mpn: tile limit %d must be positive", alpha)
		}
		c.Core.TileLimit = alpha
		return nil
	}
}

// WithSplitLevel sets L, how many times a rejected tile is quartered and
// retried (default 2).
func WithSplitLevel(l int) Option {
	return func(c *config) error {
		if l < 0 {
			return fmt.Errorf("mpn: split level %d must be non-negative", l)
		}
		c.Core.SplitLevel = l
		return nil
	}
}

// WithBuffer sets b, the buffering parameter: the server retrieves the
// best b+1 meeting points once per update and verifies tiles against that
// buffer only (default 100; 0 disables buffering).
func WithBuffer(b int) Option {
	return func(c *config) error {
		if b < 0 {
			return fmt.Errorf("mpn: buffer %d must be non-negative", b)
		}
		c.Core.Buffer = b
		return nil
	}
}

// WithIncremental enables incremental safe-region maintenance: the
// server retains each group's last plan, and an update whose recomputed
// result set is unchanged regrows only the regions it invalidates —
// every member still inside her region keeps it (the paper's
// independent-safe-region protocol), falling back to a full replan when
// the optimum churns or the POI set mutated since the retained plan.
// Notification.Outcome reports which path each recomputation took.
// Incremental and full plans are equivalent (both are valid safe-region
// sets for the same meeting point) but not byte-identical: retained
// regions were grown around older locations.
func WithIncremental() Option {
	return func(c *config) error {
		c.Incremental = true
		return nil
	}
}

// WithShards sets the number of independent registry shards in the
// server's concurrent group engine (default GOMAXPROCS). Groups hash over
// shards; operations on different shards never contend.
func WithShards(n int) Option {
	return func(c *config) error {
		if n < 1 {
			return fmt.Errorf("mpn: shard count %d must be positive", n)
		}
		c.Engine.Shards = n
		return nil
	}
}

// WithWorkers sets the number of recomputation workers per shard (default
// 1). Total asynchronous compute parallelism is shards × workers.
func WithWorkers(n int) Option {
	return func(c *config) error {
		if n < 1 {
			return fmt.Errorf("mpn: worker count %d must be positive", n)
		}
		c.Engine.Workers = n
		return nil
	}
}

// WithQueueDepth bounds each shard's pending-update queue (default 1024).
// Submissions block while the shard queue is full, pushing backpressure
// toward the transport; coalescing keeps at most one queue entry per
// group, so a depth of at least the groups-per-shard count never blocks.
func WithQueueDepth(depth int) Option {
	return func(c *config) error {
		if depth < 1 {
			return fmt.Errorf("mpn: queue depth %d must be positive", depth)
		}
		c.Engine.QueueDepth = depth
		return nil
	}
}

// WithAdmissionWait bounds how long Group.SubmitUpdate may wait for
// space when its shard's run queue is full: once the wait expires the
// submission is shed with ErrOverloaded instead of queued, so a
// saturated server degrades into bounded-latency rejections rather than
// unbounded caller stalls (coalescing makes shedding safe — the group's
// retained plan stays valid and the next accepted update carries the
// latest locations). The default is 1 second; a negative wait sheds
// immediately (fail-fast admission). Shed counts are visible in
// Server.ShardStats.
func WithAdmissionWait(d time.Duration) Option {
	return func(c *config) error {
		if d == 0 {
			return nil // keep the engine default
		}
		c.Engine.AdmissionWait = d
		return nil
	}
}

// WithCloseTimeout bounds how long Server.Close drains queued
// recomputations before abandoning them (abandoned counts are visible
// in Server.ShardStats). The default is 5 seconds; a negative timeout
// waits unboundedly.
func WithCloseTimeout(d time.Duration) Option {
	return func(c *config) error {
		if d == 0 {
			return nil // keep the engine default
		}
		c.Engine.CloseTimeout = d
		return nil
	}
}

// WithTheta sets the default angular half-width (radians) of the directed
// ordering's travel cone, used when a caller does not supply per-user
// deviation bounds (default π/4).
func WithTheta(theta float64) Option {
	return func(c *config) error {
		if theta <= 0 || theta > math.Pi {
			return fmt.Errorf("mpn: theta %v out of (0, π]", theta)
		}
		c.Core.Theta = theta
		return nil
	}
}
