package engine

import (
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"mpn/internal/core"
	"mpn/internal/geom"
)

// benchGroups is how many live groups the update benchmarks spread load
// over — enough that per-group serialization never caps parallelism.
const benchGroups = 64

func benchLocs(rng *rand.Rand) []geom.Point {
	base := geom.Pt(0.1+0.8*rng.Float64(), 0.1+0.8*rng.Float64())
	return []geom.Point{base, geom.Pt(base.X+0.01, base.Y+0.015)}
}

// singleMutexRegistry is the pre-engine baseline: one registry mutex held
// across the whole recomputation, exactly what the synchronous
// coordinator did per TCP report.
type singleMutexRegistry struct {
	plan PlanWSFunc

	mu     sync.Mutex
	ws     core.Workspace // guarded by mu, like everything below
	nextID GroupID
	groups map[GroupID]*struct {
		meeting geom.Point
		regions []core.SafeRegion
	}
}

func newSingleMutexRegistry(plan PlanWSFunc) *singleMutexRegistry {
	return &singleMutexRegistry{plan: plan, groups: map[GroupID]*struct {
		meeting geom.Point
		regions []core.SafeRegion
	}{}}
}

func (r *singleMutexRegistry) Register(users []geom.Point) (GroupID, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	meeting, regions, _, err := r.plan(&r.ws, users, nil)
	if err != nil {
		return 0, err
	}
	r.nextID++
	r.groups[r.nextID] = &struct {
		meeting geom.Point
		regions []core.SafeRegion
	}{meeting, regions}
	return r.nextID, nil
}

func (r *singleMutexRegistry) Update(id GroupID, users []geom.Point) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	meeting, regions, _, err := r.plan(&r.ws, users, nil)
	if err != nil {
		return err
	}
	g := r.groups[id]
	g.meeting, g.regions = meeting, regions
	return nil
}

// BenchmarkEngineParallelUpdates drives synchronous recomputations for
// many groups from all procs through the sharded engine: computations for
// different groups run concurrently, contending only on lock-striped
// registry lookups.
func BenchmarkEngineParallelUpdates(b *testing.B) {
	pl := testPlanner(b, 2000, 42)
	e := NewWS(tilePlan(pl), Options{Shards: runtime.GOMAXPROCS(0)})
	defer e.Close()
	rng := rand.New(rand.NewSource(1))
	ids := make([]GroupID, benchGroups)
	for i := range ids {
		id, err := e.Register(benchLocs(rng), nil)
		if err != nil {
			b.Fatal(err)
		}
		ids[i] = id
	}
	var next atomic.Uint64
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		rng := rand.New(rand.NewSource(int64(next.Add(1)) << 32))
		for pb.Next() {
			id := ids[next.Add(1)%benchGroups]
			if err := e.Update(id, benchLocs(rng), nil); err != nil {
				b.Error(err)
				return
			}
		}
	})
}

// BenchmarkSingleMutexParallelUpdates is the baseline the engine must
// beat: identical plan work, but every recomputation serializes on one
// registry mutex.
func BenchmarkSingleMutexParallelUpdates(b *testing.B) {
	pl := testPlanner(b, 2000, 42)
	r := newSingleMutexRegistry(tilePlan(pl))
	rng := rand.New(rand.NewSource(1))
	ids := make([]GroupID, benchGroups)
	for i := range ids {
		id, err := r.Register(benchLocs(rng))
		if err != nil {
			b.Fatal(err)
		}
		ids[i] = id
	}
	var next atomic.Uint64
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		rng := rand.New(rand.NewSource(int64(next.Add(1)) << 32))
		for pb.Next() {
			id := ids[next.Add(1)%benchGroups]
			if err := r.Update(id, benchLocs(rng)); err != nil {
				b.Error(err)
				return
			}
		}
	})
}

// BenchmarkEngineAsyncBurst measures the asynchronous path end to end:
// b.N submissions fan out over the shard queues and the benchmark waits
// until the worker pool has fully drained them. Coalescing means the
// engine may satisfy b.N submissions with fewer recomputations — the
// recomputes/op metric reports the collapse factor.
func BenchmarkEngineAsyncBurst(b *testing.B) {
	pl := testPlanner(b, 2000, 42)
	e := NewWS(tilePlan(pl), Options{Shards: runtime.GOMAXPROCS(0), Workers: 1})
	defer e.Close()
	rng := rand.New(rand.NewSource(1))
	ids := make([]GroupID, benchGroups)
	for i := range ids {
		id, err := e.Register(benchLocs(rng), nil)
		if err != nil {
			b.Fatal(err)
		}
		ids[i] = id
	}
	before := 0
	for _, id := range ids {
		before += e.Updates(id)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := e.Submit(ids[i%benchGroups], benchLocs(rng), nil); err != nil {
			b.Fatal(err)
		}
	}
	e.quiesce(b)
	b.StopTimer()
	after := 0
	for _, id := range ids {
		after += e.Updates(id)
	}
	b.ReportMetric(float64(after-before)/float64(b.N), "recomputes/op")
}
