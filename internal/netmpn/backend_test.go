package netmpn

import (
	"math"
	"math/rand"
	"runtime"
	"sync"
	"testing"

	"mpn/internal/core"
	"mpn/internal/geom"
)

func testBackend(t testing.TB, poiEvery int, cfg BackendConfig) *Backend {
	t.Helper()
	net := testNet(t)
	var pois []int
	for n := 0; n < net.NumNodes(); n += poiEvery {
		pois = append(pois, n)
	}
	b, err := NewBackend(net, pois, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func sameResult(t *testing.T, tag string, gotNode int, gotDist float64, want Result) {
	t.Helper()
	if gotNode != want.Node {
		t.Fatalf("%s: best node %d, oracle %d", tag, gotNode, want.Node)
	}
	if math.Float64bits(gotDist) != math.Float64bits(want.Dist) {
		t.Fatalf("%s: best dist %v, oracle %v (not bit-identical)", tag, gotDist, want.Dist)
	}
}

func sameRegions(t *testing.T, tag string, got []core.SafeRegion, oracle []RangeRegion, s *Server) {
	t.Helper()
	if len(got) != len(oracle) {
		t.Fatalf("%s: %d regions, oracle %d", tag, len(got), len(oracle))
	}
	for i := range got {
		if got[i].Kind != core.KindNetRange {
			t.Fatalf("%s: region %d kind %v", tag, i, got[i].Kind)
		}
		nr, ok := got[i].Net.(*Region)
		if !ok {
			t.Fatalf("%s: region %d payload %T", tag, i, got[i].Net)
		}
		want := s.exportRegion(&oracle[i], s.posPoint(oracle[i].Center))
		if !samePlannerRegion(nr, want) {
			t.Fatalf("%s: region %d differs from oracle export (radius %v vs %v, %d vs %d segs)",
				tag, i, nr.Radius, want.Radius, len(nr.Segs), len(want.Segs))
		}
	}
}

// samePlannerRegion compares what EqualRegion compares (the wire
// content) plus the planner-side center and radius.
func samePlannerRegion(a, b *Region) bool {
	return a.EqualRegion(b) && a.Center == b.Center && a.Radius == b.Radius
}

// oracleTol is how far a POI-rooted distance may sit from the user-rooted
// oracle's: both sum the same edge lengths, in opposite order.
const oracleTol = 1e-12

func within(got, want float64) bool {
	return got == want || math.Abs(got-want) <= oracleTol*math.Max(1, math.Abs(got))
}

// oracleTop2 recomputes the user-rooted oracle's best and runner-up
// aggregates (Server.Plan returns only the best).
func oracleTop2(b *Backend, pos []Position, agg Aggregate) (v1, v2 float64) {
	v1, v2 = math.Inf(1), math.Inf(1)
	for _, p := range b.Server().pois {
		if d := planAgg(b, pos, p, agg); d < v1 {
			v1, v2 = d, v1
		} else if d < v2 {
			v2 = d
		}
	}
	return v1, v2
}

// TestBackendMatchesOracle is the correctness fence against the
// untouched user-rooted Server.Plan: across random groups, sizes, and
// both aggregates the table-driven plan must find the same aggregate
// distance and radius to oracleTol, and the same best POI unless the
// oracle's own top two are within that tolerance of each other.
func TestBackendMatchesOracle(t *testing.T) {
	for _, agg := range []Aggregate{Max, Sum} {
		b := testBackend(t, 9, BackendConfig{Aggregate: agg})
		ws := core.NewWorkspace()
		rng := rand.New(rand.NewSource(7 + int64(agg)))
		for trial := 0; trial < 60; trial++ {
			m := 1 + rng.Intn(5)
			users := make([]geom.Point, m)
			pos := make([]Position, m)
			for i := range users {
				users[i] = geom.Pt(rng.Float64(), rng.Float64())
				pos[i] = b.Snap(users[i])
			}
			wantBest, wantRegs, err := b.Server().Plan(pos, agg)
			plan, out, gotErr := b.PlanNet(ws, core.PlanRequest{Kind: core.KindNetRange, Users: users})
			if (err != nil) != (gotErr != nil) {
				t.Fatalf("trial %d: oracle err %v, backend err %v", trial, err, gotErr)
			}
			if err != nil {
				continue
			}
			if out != core.IncFull {
				t.Fatalf("trial %d: stateless plan reported %v", trial, out)
			}
			if !within(plan.Best.Dist, wantBest.Dist) {
				t.Fatalf("trial %d: best dist %v, oracle %v", trial, plan.Best.Dist, wantBest.Dist)
			}
			if plan.Best.Item.ID != wantBest.Node {
				if v1, v2 := oracleTop2(b, pos, agg); !within(v2, v1) {
					t.Fatalf("trial %d: best node %d, oracle %d (oracle top two %v, %v)",
						trial, plan.Best.Item.ID, wantBest.Node, v1, v2)
				}
			}
			if len(plan.Regions) != len(wantRegs) {
				t.Fatalf("trial %d: %d regions, oracle %d", trial, len(plan.Regions), len(wantRegs))
			}
			for i := range wantRegs {
				if got := plan.Regions[i].Net.(*Region).Radius; !within(got, wantRegs[i].Radius) {
					t.Fatalf("trial %d: region %d radius %v, oracle %v", trial, i, got, wantRegs[i].Radius)
				}
			}
		}
	}
}

// TestBackendMatchesPOIRootedBruteForce is the bitwise fence: PlanNet
// must equal a brute force that runs Server.sssp from every POI and scans
// — same node, same distance bits, equal regions — on a table built by
// one goroutine and by four, so neither the layout nor the parallel build
// can drift.
func TestBackendMatchesPOIRootedBruteForce(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 4} {
		runtime.GOMAXPROCS(procs)
		for _, agg := range []Aggregate{Max, Sum} {
			b := testBackend(t, 9, BackendConfig{Aggregate: agg})
			s := b.Server()
			fromPOI := make([][]float64, len(s.pois))
			for j, p := range s.pois {
				fromPOI[j] = s.distRow(NodePos(p))
			}
			ws := core.NewWorkspace()
			rng := rand.New(rand.NewSource(23 + int64(agg)))
			for trial := 0; trial < 60; trial++ {
				users := make([]geom.Point, 1+rng.Intn(5))
				for i := range users {
					users[i] = geom.Pt(rng.Float64(), rng.Float64())
				}
				best, second := Result{Node: -1, Dist: math.Inf(1)}, Result{Node: -1, Dist: math.Inf(1)}
				for j, p := range s.pois {
					var d float64
					for _, u := range users {
						pos := b.Snap(u)
						l := s.EdgeLen(pos.A, pos.B)
						v := math.Min(pos.T*l+fromPOI[j][pos.A], (1-pos.T)*l+fromPOI[j][pos.B])
						if agg == Sum {
							d += v
						} else {
							d = math.Max(d, v)
						}
					}
					if d < best.Dist {
						best, second = Result{Node: p, Dist: d}, best
					} else if d < second.Dist {
						second = Result{Node: p, Dist: d}
					}
				}
				plan, _, err := b.PlanNet(ws, core.PlanRequest{Kind: core.KindNetRange, Users: users})
				if err != nil {
					t.Fatal(err)
				}
				sameResult(t, "brute", plan.Best.Item.ID, plan.Best.Dist, best)
				want := make([]RangeRegion, len(users))
				for i, u := range users {
					want[i] = s.rangeRegion(b.Snap(u), radiusOf(best, second, agg, len(users)))
				}
				sameRegions(t, "brute", plan.Regions, want, s)
			}
		}
	}
}

// TestBackendConcurrentPlans plans from four goroutines, each with its
// own workspace and plan state, over one backend (run under -race): the
// table is read-only after construction and every plan must equal the
// single-goroutine plan of the same request.
func TestBackendConcurrentPlans(t *testing.T) {
	b := testBackend(t, 9, BackendConfig{})
	rng := rand.New(rand.NewSource(31))
	reqs := make([][]geom.Point, 40)
	want := make([]core.Plan, len(reqs))
	for k := range reqs {
		reqs[k] = []geom.Point{
			geom.Pt(rng.Float64(), rng.Float64()),
			geom.Pt(rng.Float64(), rng.Float64()),
			geom.Pt(rng.Float64(), rng.Float64()),
		}
		var err error
		want[k], _, err = b.PlanNet(core.NewWorkspace(), core.PlanRequest{Kind: core.KindNetRange, Users: reqs[k]})
		if err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ws := core.NewWorkspace()
			var st core.PlanState
			for k := range reqs {
				k = (k + g*7) % len(reqs)
				plan, _, err := b.PlanNet(ws, core.PlanRequest{Kind: core.KindNetRange, Users: reqs[k], State: &st})
				if err != nil {
					t.Error(err)
					return
				}
				if plan.Best != want[k].Best {
					t.Errorf("goroutine %d, request %d: best %v, want %v", g, k, plan.Best, want[k].Best)
					return
				}
			}
		}()
	}
	wg.Wait()
}

// TestDriftMatchesDijkstra fences the search-free drift of the
// incremental arm: for positions inside a retained region it must equal
// the Dijkstra distance to the region's center (to rounding — the two sum
// from opposite ends), and outside it may only over-estimate.
func TestDriftMatchesDijkstra(t *testing.T) {
	b := testBackend(t, 9, BackendConfig{})
	s := b.Server()
	rng := rand.New(rand.NewSource(43))
	sc := new(netScratch)
	inside := 0
	for trial := 0; trial < 40; trial++ {
		center := b.Snap(geom.Pt(rng.Float64(), rng.Float64()))
		radius := 0.05 + 0.2*rng.Float64()
		rr := s.rangeRegion(center, radius) // the reference's network containment
		region := s.region(sc, center, radius)
		fromCenter := s.distRow(center)
		for k := 0; k < 50; k++ {
			c := s.posPoint(center) // draw around the center: half land inside
			p := b.Snap(geom.Pt(c.X+0.3*(rng.Float64()-0.5), c.Y+0.3*(rng.Float64()-0.5)))
			l := s.EdgeLen(p.A, p.B)
			want := math.Min(fromCenter[p.A]+p.T*l, fromCenter[p.B]+(1-p.T)*l)
			if edgeKey(p.A, p.B) == edgeKey(center.A, center.B) {
				ct := center.T
				if center.A != p.A {
					ct = 1 - ct
				}
				want = math.Min(want, math.Abs(p.T-ct)*l)
			}
			got := region.drift(s, p)
			if rr.Contains(p) {
				inside++
				if !within(got, want) {
					t.Fatalf("trial %d: drift %v inside the region, Dijkstra %v", trial, got, want)
				}
			} else if got < want && !within(got, want) {
				t.Fatalf("trial %d: drift %v under-estimates Dijkstra %v outside the region", trial, got, want)
			}
		}
		if got := region.drift(s, center); got != 0 {
			t.Fatalf("trial %d: drift of the center itself %v", trial, got)
		}
	}
	if inside < 400 {
		t.Fatalf("only %d positions fell inside a region", inside)
	}
}

// TestBackendSinglePOI covers the single-POI degenerate case: infinite
// radius, whole-network regions, kept forever.
func TestBackendSinglePOI(t *testing.T) {
	net := testNet(t)
	b, err := NewBackend(net, []int{5}, BackendConfig{})
	if err != nil {
		t.Fatal(err)
	}
	ws := core.NewWorkspace()
	var st core.PlanState
	users := []geom.Point{geom.Pt(0.1, 0.1), geom.Pt(0.9, 0.8)}
	plan, _, err := b.PlanNet(ws, core.PlanRequest{Kind: core.KindNetRange, Users: users, State: &st})
	if err != nil {
		t.Fatal(err)
	}
	if !math.IsInf(plan.Regions[0].Net.(*Region).Radius, 1) {
		t.Fatalf("single POI radius %v, want +Inf", plan.Regions[0].Net.(*Region).Radius)
	}
	users2 := []geom.Point{geom.Pt(0.5, 0.5), geom.Pt(0.2, 0.9)}
	_, out, err := b.PlanNet(ws, core.PlanRequest{Kind: core.KindNetRange, Users: users2, State: &st})
	if err != nil {
		t.Fatal(err)
	}
	if out != core.IncKept {
		t.Fatalf("single-POI update outcome %v, want kept", out)
	}
}

// TestBackendIncSound drives a group of network walkers through many
// update rounds against the incremental path and enforces the Theorem 1
// contract at every step: as long as no member escaped her retained
// region, the naive oracle recomputed at the CURRENT positions must
// still elect the retained meeting POI. It also checks that full
// outcomes are byte-identical to a from-scratch plan and that the walk
// exercised kept, partial, and full at least once each.
func TestBackendIncSound(t *testing.T) {
	for _, agg := range []Aggregate{Max, Sum} {
		b := testBackend(t, 13, BackendConfig{Aggregate: agg})
		net := b.Server().net
		ws, wsFresh := core.NewWorkspace(), core.NewWorkspace()
		var st core.PlanState
		// m = 2 keeps gap/(2m) an exact binary division, so a stationary
		// round's Σρ' equals gap/2 with no rounding excess — the Sum
		// walk's kept rounds depend on it.
		const m = 2
		walkers := make([]*Walker, m)
		for i := range walkers {
			w, err := NewWalker(net, 0.0012, int64(100*i)+int64(agg))
			if err != nil {
				t.Fatal(err)
			}
			walkers[i] = w
		}
		users := make([]geom.Point, m)
		seen := map[core.IncOutcome]int{}
		for step := 0; step < 300; step++ {
			if step%4 != 3 { // every fourth round the group idles in place
				for i, w := range walkers {
					users[i] = b.Server().posPoint(w.Step())
				}
			}
			plan, out, err := b.PlanNet(ws, core.PlanRequest{Kind: core.KindNetRange, Users: users, State: &st})
			if err != nil {
				t.Fatal(err)
			}
			seen[out]++
			if out == core.IncFull {
				fresh, _, err := b.PlanNet(wsFresh, core.PlanRequest{Kind: core.KindNetRange, Users: users})
				if err != nil {
					t.Fatal(err)
				}
				sameResult(t, "full-vs-fresh", plan.Best.Item.ID, plan.Best.Dist,
					Result{Node: fresh.Best.Item.ID, Dist: fresh.Best.Dist})
				for i := range plan.Regions {
					if !samePlannerRegion(plan.Regions[i].Net.(*Region), fresh.Regions[i].Net.(*Region)) {
						t.Fatalf("step %d: full region %d differs from fresh plan", step, i)
					}
				}
			}
			// Soundness: while everyone stays inside, the retained POI
			// must still be optimal at the members' actual locations.
			inside := true
			for i := range users {
				if !plan.Regions[i].Contains(users[i]) {
					inside = false
				}
			}
			if inside {
				pos := make([]Position, m)
				for i := range users {
					pos[i] = b.Snap(users[i])
				}
				oracleBest, _, err := b.Server().Plan(pos, agg)
				if err != nil {
					t.Fatal(err)
				}
				if oracleBest.Dist < planAgg(b, pos, plan.Best.Item.ID, agg) &&
					oracleBest.Node != plan.Best.Item.ID {
					t.Fatalf("step %d (%v): members inside regions but oracle best %d (%v) beats retained %d (%v)",
						step, out, oracleBest.Node, oracleBest.Dist,
						plan.Best.Item.ID, planAgg(b, pos, plan.Best.Item.ID, agg))
				}
			}
		}
		if seen[core.IncKept] == 0 || seen[core.IncPartial] == 0 || seen[core.IncFull] == 0 {
			t.Fatalf("agg %v: walk did not exercise all outcomes: %v", agg, seen)
		}
	}
}

// planAgg computes the aggregate network distance from pos to a POI node
// with the naive per-member Dijkstra.
func planAgg(b *Backend, pos []Position, node int, agg Aggregate) float64 {
	var d float64
	for _, p := range pos {
		v := b.Server().Dist(p, node)
		if agg == Max {
			if v > d {
				d = v
			}
		} else {
			d += v
		}
	}
	return d
}

// TestSnapDeterministic pins the snapping used by the differential
// fences: equal inputs must land on equal positions, and points sitting
// exactly on a node must snap to that node's location.
func TestSnapDeterministic(t *testing.T) {
	b := testBackend(t, 9, BackendConfig{})
	net := b.Server().net
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 40; trial++ {
		p := geom.Pt(rng.Float64(), rng.Float64())
		if b.Snap(p) != b.Snap(p) {
			t.Fatal("snap not deterministic")
		}
	}
	for n := 0; n < net.NumNodes(); n += 17 {
		pos := b.Snap(net.Nodes[n].P)
		if err := b.Server().validate(pos); err != nil {
			t.Fatalf("node %d snapped to invalid position %v", n, pos)
		}
		if d := b.Server().posPoint(pos).Dist(net.Nodes[n].P); d > 1e-9 {
			t.Fatalf("node %d snapped %v away", n, d)
		}
	}
}

// TestSnapGridMatchesScan fences the snap grid against the exhaustive
// projection scan: bit-identical positions everywhere, including points
// far outside the network's bounding box.
func TestSnapGridMatchesScan(t *testing.T) {
	b := testBackend(t, 9, BackendConfig{})
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 500; trial++ {
		var p geom.Point
		switch trial % 3 {
		case 0: // uniform over the network
			p = geom.Pt(rng.Float64(), rng.Float64())
		case 1: // clustered near roads (grid cells hold few candidates)
			n := b.Server().net.Nodes[rng.Intn(b.Server().net.NumNodes())].P
			p = geom.Pt(n.X+(rng.Float64()-0.5)*0.01, n.Y+(rng.Float64()-0.5)*0.01)
		default: // outside the bounding box
			p = geom.Pt(rng.Float64()*4-1.5, rng.Float64()*4-1.5)
		}
		if got, want := b.Snap(p), b.snapSlow(p); got != want {
			t.Fatalf("trial %d: grid snap %v != scan %v for %v", trial, got, want, p)
		}
	}
}

// TestBackendThroughCoreDispatch checks the registration seam: a planner
// with the backend registered serves KindNetRange through Plan, and one
// without reports ErrNoNetBackend.
func TestBackendThroughCoreDispatch(t *testing.T) {
	b := testBackend(t, 9, BackendConfig{})
	pois := []geom.Point{geom.Pt(0.5, 0.5), geom.Pt(0.1, 0.9)}
	pl, err := core.NewPlanner(pois, core.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	ws := core.NewWorkspace()
	users := []geom.Point{geom.Pt(0.2, 0.3)}
	if _, _, err := pl.Plan(ws, core.PlanRequest{Kind: core.KindNetRange, Users: users}); err != core.ErrNoNetBackend {
		t.Fatalf("unregistered planner: err %v, want ErrNoNetBackend", err)
	}
	pl.RegisterNetBackend(b)
	plan, _, err := pl.Plan(ws, core.PlanRequest{Kind: core.KindNetRange, Users: users})
	if err != nil {
		t.Fatal(err)
	}
	direct, _, err := b.PlanNet(core.NewWorkspace(), core.PlanRequest{Kind: core.KindNetRange, Users: users})
	if err != nil {
		t.Fatal(err)
	}
	sameResult(t, "dispatch", plan.Best.Item.ID, plan.Best.Dist,
		Result{Node: direct.Best.Item.ID, Dist: direct.Best.Dist})
}
