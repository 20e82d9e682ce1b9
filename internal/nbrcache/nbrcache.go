// Package nbrcache is an inert stand-in for the shared GNN neighborhood
// cache, which was deleted: it never paid for itself on any workload, and
// plans were byte-identical without it. The names below remain only
// because the benchmark module (bench/) still compiles against them; they
// cache nothing, and the package goes with ROADMAP 9 together with
// core.PlanRequest.Cache, the cache parameter of the engine's planner
// adapters and mpnserver's -gnncache flag.
package nbrcache

// Cache is accepted where a cache used to be and is never consulted.
type Cache struct{}

// Config is accepted and ignored.
type Config struct{ MaxBytes int64 }

// Stats is always zero.
type Stats struct{ Hits, Misses, Rejected, Stale uint64 }

// New returns an inert cache.
func New(Config) *Cache { return new(Cache) }

// Stats returns zeros.
func (*Cache) Stats() Stats { return Stats{} }
