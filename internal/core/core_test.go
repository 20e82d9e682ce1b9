package core

import (
	"math"
	"math/rand"
	"sort"
	"testing"

	"mpn/internal/geom"
	"mpn/internal/gnn"
)

// --- helpers -------------------------------------------------------------

func randomPoints(n int, rng *rand.Rand) []geom.Point {
	pts := make([]geom.Point, n)
	for i := range pts {
		pts[i] = geom.Pt(rng.Float64(), rng.Float64())
	}
	return pts
}

// samplePoint draws a uniform random point from a region.
func samplePoint(r SafeRegion, rng *rand.Rand) geom.Point {
	if r.Kind == KindCircle {
		// Uniform in disk by polar sampling.
		a := rng.Float64() * 2 * math.Pi
		d := r.Circle.R * math.Sqrt(rng.Float64())
		return geom.Pt(r.Circle.C.X+d*math.Cos(a), r.Circle.C.Y+d*math.Sin(a))
	}
	t := r.Tiles[rng.Intn(len(r.Tiles))]
	return geom.Pt(t.Min.X+rng.Float64()*t.Width(), t.Min.Y+rng.Float64()*t.Height())
}

// assertPlanSound checks the Definition 3 independence property by brute
// force: for location instances drawn from the plan's regions the reported
// meeting point must remain optimal (up to ties) over all of points.
//
// Uniform interior draws alone rarely land where a verification bug would
// show — at the extremes of a region, against a near rival. So besides the
// samples draws, for each of the 12 rivals nearest the group and each lead
// member, one instance puts the lead on the point of her region's boundary
// (tile vertex, circle boundary point) that maximises ‖p°,·‖ − ‖rival,·‖
// and everyone else on the point of theirs nearest the rival — MAX's worst
// case through the lead's region — and one instance puts every member on
// her own maximiser, which is SUM's.
func assertPlanSound(t *testing.T, points []geom.Point, plan Plan, agg gnn.Aggregate, rng *rand.Rand, samples int) {
	t.Helper()
	po := plan.Best.Item.P
	check := func(what string, inst []geom.Point) {
		t.Helper()
		poDist := agg.PointDist(po, inst)
		best := math.Inf(1)
		for _, p := range points {
			if d := agg.PointDist(p, inst); d < best {
				best = d
			}
		}
		if poDist > best+1e-9 {
			t.Fatalf("%s: p° dist %v exceeds true optimum %v (instance %v)", what, poDist, best, inst)
		}
	}

	inst := make([]geom.Point, len(plan.Regions))
	for s := 0; s < samples; s++ {
		for i, r := range plan.Regions {
			inst[i] = samplePoint(r, rng)
		}
		check("uniform sample", inst)
	}

	worst := make([]geom.Point, len(plan.Regions))
	near := make([]geom.Point, len(plan.Regions))
	for _, rival := range nearestRivals(points, plan, agg, 12) {
		for i, r := range plan.Regions {
			worst[i], near[i] = regionExtremes(r, po, rival)
		}
		for lead := range plan.Regions {
			copy(inst, near)
			inst[lead] = worst[lead]
			check("lead at her extreme, the rest nearest the rival", inst)
		}
		check("everyone at her extreme", worst)
	}
}

// nearestRivals returns the n points other than p° with the smallest
// aggregate distance to the group, each member standing at the centre of
// her region's first tile (or of her circle).
func nearestRivals(points []geom.Point, plan Plan, agg gnn.Aggregate, n int) []geom.Point {
	at := make([]geom.Point, len(plan.Regions))
	for i, r := range plan.Regions {
		at[i] = r.Circle.C
		if r.Kind == KindTiles {
			at[i] = r.Tiles[0].Center()
		}
	}
	var rivals []geom.Point
	for _, p := range points {
		if p != plan.Best.Item.P {
			rivals = append(rivals, p)
		}
	}
	sort.Slice(rivals, func(a, b int) bool { return agg.PointDist(rivals[a], at) < agg.PointDist(rivals[b], at) })
	return rivals[:min(n, len(rivals))]
}

// regionExtremes returns the boundary point of r that maximises
// ‖po,·‖ − ‖rival,·‖ — over the tile vertices, or 360 points of the circle
// — and the point of r nearest the rival.
func regionExtremes(r SafeRegion, po, rival geom.Point) (worst, near geom.Point) {
	worstDiff, nearDist := math.Inf(-1), math.Inf(1)
	consider := func(v geom.Point) {
		if d := po.Dist(v) - rival.Dist(v); d > worstDiff {
			worst, worstDiff = v, d
		}
	}
	if r.Kind == KindCircle {
		for k := 0; k < 360; k++ {
			a := float64(k) * math.Pi / 180
			consider(geom.Pt(r.Circle.C.X+r.Circle.R*math.Cos(a), r.Circle.C.Y+r.Circle.R*math.Sin(a)))
		}
		near = rival
		if d := rival.Dist(r.Circle.C); d > r.Circle.R {
			near = r.Circle.C.Add(rival.Sub(r.Circle.C).Scale(r.Circle.R / d))
		}
		return worst, near
	}
	for _, tile := range r.Tiles {
		for _, v := range tile.Corners() {
			consider(v)
		}
		if v := tile.ClosestPoint(rival); rival.Dist(v) < nearDist {
			near, nearDist = v, rival.Dist(v)
		}
	}
	return worst, near
}

func mustPlanner(t *testing.T, pts []geom.Point, opts Options) *Planner {
	t.Helper()
	pl, err := NewPlanner(pts, opts)
	if err != nil {
		t.Fatal(err)
	}
	return pl
}

// --- Verify / Lemma 1 ----------------------------------------------------

func TestVerifyFig6a(t *testing.T) {
	// Fig. 6a style setup: verified regions imply p1 cannot replace p°.
	po := geom.Pt(0, 0)
	p1 := geom.Pt(10, 0)
	regions := []SafeRegion{
		CircleRegion(geom.Pt(1, 0), 0.5),
		CircleRegion(geom.Pt(-1, 0), 0.5),
		CircleRegion(geom.Pt(0, 1), 0.5),
	}
	if !Verify(regions, po, p1) {
		t.Fatal("clearly-safe configuration failed Verify")
	}
	// A competitor right on top of the users is not verifiable.
	if Verify(regions, po, geom.Pt(0.5, 0)) {
		t.Fatal("competitor inside the user cluster passed Verify")
	}
}

func TestVerifySoundness(t *testing.T) {
	// Whenever Verify accepts, every sampled instance must keep p° at
	// least as good as p.
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 400; trial++ {
		m := 2 + rng.Intn(3)
		regions := make([]SafeRegion, m)
		for i := range regions {
			if rng.Intn(2) == 0 {
				regions[i] = CircleRegion(geom.Pt(rng.Float64(), rng.Float64()), rng.Float64()*0.1)
			} else {
				var tiles []geom.Rect
				for k := 0; k <= rng.Intn(3); k++ {
					tiles = append(tiles, geom.RectAround(
						geom.Pt(rng.Float64(), rng.Float64()), rng.Float64()*0.1+0.01))
				}
				regions[i] = TileRegion(tiles...)
			}
		}
		po := geom.Pt(rng.Float64(), rng.Float64())
		p := geom.Pt(rng.Float64(), rng.Float64())
		if !Verify(regions, po, p) {
			continue
		}
		for s := 0; s < 50; s++ {
			inst := make([]geom.Point, m)
			for i := range inst {
				inst[i] = samplePoint(regions[i], rng)
			}
			if gnn.Max.PointDist(po, inst) > gnn.Max.PointDist(p, inst)+1e-9 {
				t.Fatalf("Verify accepted but instance favors p: po=%v p=%v", po, p)
			}
		}
	}
}

func TestVerifySumSoundness(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	accepted := 0
	for trial := 0; trial < 600; trial++ {
		m := 2 + rng.Intn(3)
		regions := make([]SafeRegion, m)
		for i := range regions {
			regions[i] = TileRegion(geom.RectAround(
				geom.Pt(rng.Float64(), rng.Float64()), rng.Float64()*0.15+0.01))
		}
		po := geom.Pt(rng.Float64(), rng.Float64())
		p := geom.Pt(rng.Float64(), rng.Float64())
		if !VerifySum(regions, po, p) {
			continue
		}
		accepted++
		for s := 0; s < 40; s++ {
			inst := make([]geom.Point, m)
			for i := range inst {
				inst[i] = samplePoint(regions[i], rng)
			}
			if gnn.Sum.PointDist(po, inst) > gnn.Sum.PointDist(p, inst)+1e-9 {
				t.Fatalf("VerifySum accepted but instance favors p")
			}
		}
	}
	if accepted == 0 {
		t.Fatal("VerifySum never accepted — test is vacuous")
	}
}

// --- GT-Verify vs IT-Verify ----------------------------------------------

func TestGTVerifyMatchesITVerify(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	agree, disagreeConservative := 0, 0
	for trial := 0; trial < 3000; trial++ {
		m := 1 + rng.Intn(3)
		ts := tileSets{users: make([][]geom.Rect, m)}
		for i := range ts.users {
			cnt := 1 + rng.Intn(4)
			for k := 0; k < cnt; k++ {
				ts.users[i] = append(ts.users[i], geom.RectAround(
					geom.Pt(rng.Float64(), rng.Float64()), rng.Float64()*0.2+0.01))
			}
		}
		po := geom.Pt(rng.Float64(), rng.Float64())
		p := geom.Pt(rng.Float64(), rng.Float64())
		gt := gtVerifyMax(ts, po, p)
		it := itVerifyMax(ts, po, p)
		if gt == it {
			agree++
			continue
		}
		disagreeConservative++
		t.Fatalf("trial %d: gtVerify=%v itVerify=%v (m=%d)", trial, gt, it, m)
	}
	if agree == 0 {
		t.Fatal("no comparisons executed")
	}
	_ = disagreeConservative
}

// --- Circle-MSR ----------------------------------------------------------

func TestCircleMSRSound(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	pts := randomPoints(500, rng)
	for _, agg := range []gnn.Aggregate{gnn.Max, gnn.Sum} {
		opts := DefaultOptions()
		opts.Aggregate = agg
		pl := mustPlanner(t, pts, opts)
		for trial := 0; trial < 25; trial++ {
			users := randomPoints(2+rng.Intn(4), rng)
			plan, err := planFull(pl, nil, PlanRequest{Kind: KindCircle, Users: users})
			if err != nil {
				t.Fatal(err)
			}
			if len(plan.Regions) != len(users) {
				t.Fatalf("region count %d != users %d", len(plan.Regions), len(users))
			}
			for i, r := range plan.Regions {
				if r.Kind != KindCircle {
					t.Fatal("CircleMSR produced non-circle")
				}
				if !r.Contains(users[i]) {
					t.Fatal("region does not contain its user")
				}
			}
			assertPlanSound(t, pts, plan, agg, rng, 60)
		}
	}
}

// Theorem 1 tightness: enlarging the radius beyond rmax must admit an
// instance where the runner-up wins, for a handcrafted collinear example.
func TestCircleMSRMaximality(t *testing.T) {
	// Users at 0 and 1 on the x axis; POIs at 0.5 (optimal) and 2.
	pts := []geom.Point{geom.Pt(0.5, 0), geom.Pt(2, 0)}
	users := []geom.Point{geom.Pt(0, 0), geom.Pt(1, 0)}
	pl := mustPlanner(t, pts, DefaultOptions())
	plan, err := planFull(pl, nil, PlanRequest{Kind: KindCircle, Users: users})
	if err != nil {
		t.Fatal(err)
	}
	r := plan.Regions[0].Circle.R
	// ‖p°,U‖max = 0.5; ‖p²,U‖max = 2 ⇒ rmax = 0.75.
	if math.Abs(r-0.75) > 1e-12 {
		t.Fatalf("rmax=%v want 0.75", r)
	}
	// With radius rmax the extreme instance (both users pushed toward p²)
	// still ties or favors p°.
	u1 := geom.Pt(0+r, 0)
	u2 := geom.Pt(1+r, 0)
	inst := []geom.Point{u1, u2}
	if gnn.Max.PointDist(pts[0], inst) > gnn.Max.PointDist(pts[1], inst)+1e-9 {
		t.Fatal("rmax circle admits a losing instance")
	}
	// A 1% larger radius breaks it.
	r2 := r * 1.01
	inst = []geom.Point{geom.Pt(r2, 0), geom.Pt(1+r2, 0)}
	if gnn.Max.PointDist(pts[0], inst) <= gnn.Max.PointDist(pts[1], inst) {
		t.Fatal("enlarged radius should admit a losing instance")
	}
}

func TestCircleMSRSinglePOI(t *testing.T) {
	pl := mustPlanner(t, []geom.Point{geom.Pt(0.5, 0.5)}, DefaultOptions())
	plan, err := planFull(pl, nil, PlanRequest{Kind: KindCircle, Users: []geom.Point{geom.Pt(0, 0), geom.Pt(1, 1)}})
	if err != nil {
		t.Fatal(err)
	}
	// The sole POI can never be displaced: radius should be effectively
	// unbounded.
	if plan.Regions[0].Circle.R < 1e6 {
		t.Fatalf("single-POI radius %v too small", plan.Regions[0].Circle.R)
	}
}

func TestCircleMSRNoUsers(t *testing.T) {
	pl := mustPlanner(t, randomPoints(10, rand.New(rand.NewSource(5))), DefaultOptions())
	if _, err := planFull(pl, nil, PlanRequest{Kind: KindCircle}); err != ErrNoUsers {
		t.Fatalf("want ErrNoUsers, got %v", err)
	}
	if _, err := planFull(pl, nil, PlanRequest{Kind: KindTiles}); err != ErrNoUsers {
		t.Fatalf("want ErrNoUsers, got %v", err)
	}
}

// --- Tile-MSR ------------------------------------------------------------

func tileOpts(mod func(*Options)) Options {
	o := DefaultOptions()
	o.TileLimit = 10
	o.SplitLevel = 2
	if mod != nil {
		mod(&o)
	}
	return o
}

func TestTileMSRSoundMax(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	pts := randomPoints(300, rng)
	pl := mustPlanner(t, pts, tileOpts(nil))
	for trial := 0; trial < 10; trial++ {
		users := randomPoints(3, rng)
		plan, err := planFull(pl, nil, PlanRequest{Kind: KindTiles, Users: users})
		if err != nil {
			t.Fatal(err)
		}
		for i, r := range plan.Regions {
			if !r.Contains(users[i]) {
				t.Fatalf("region %d misses its user", i)
			}
		}
		assertPlanSound(t, pts, plan, gnn.Max, rng, 80)
	}
}

func TestTileMSRSoundSum(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	pts := randomPoints(300, rng)
	pl := mustPlanner(t, pts, tileOpts(func(o *Options) { o.Aggregate = gnn.Sum }))
	for trial := 0; trial < 8; trial++ {
		users := randomPoints(3, rng)
		plan, err := planFull(pl, nil, PlanRequest{Kind: KindTiles, Users: users})
		if err != nil {
			t.Fatal(err)
		}
		assertPlanSound(t, pts, plan, gnn.Sum, rng, 80)
	}
}

func TestTileMSRSoundDirected(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	pts := randomPoints(300, rng)
	pl := mustPlanner(t, pts, tileOpts(func(o *Options) {
		o.Directed = true
		o.Theta = math.Pi / 3
	}))
	for trial := 0; trial < 8; trial++ {
		users := randomPoints(3, rng)
		dirs := []Direction{
			{Angle: rng.Float64() * math.Pi, Theta: math.Pi / 3},
			{Angle: rng.Float64() * math.Pi}, // falls back to Options.Theta
			{Angle: rng.Float64() * math.Pi, Theta: math.Pi / 2},
		}
		plan, err := planFull(pl, nil, PlanRequest{Kind: KindTiles, Users: users, Dirs: dirs})
		if err != nil {
			t.Fatal(err)
		}
		assertPlanSound(t, pts, plan, gnn.Max, rng, 80)
	}
}

func TestTileMSRSoundBufferedMax(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	pts := randomPoints(300, rng)
	pl := mustPlanner(t, pts, tileOpts(func(o *Options) { o.Buffer = 20 }))
	for trial := 0; trial < 8; trial++ {
		users := randomPoints(3, rng)
		plan, err := planFull(pl, nil, PlanRequest{Kind: KindTiles, Users: users})
		if err != nil {
			t.Fatal(err)
		}
		if plan.Stats.IndexAccesses != 1 {
			t.Fatalf("buffered run should access the index once, got %d", plan.Stats.IndexAccesses)
		}
		assertPlanSound(t, pts, plan, gnn.Max, rng, 80)
	}
}

func TestTileMSRSoundBufferedSum(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	pts := randomPoints(300, rng)
	pl := mustPlanner(t, pts, tileOpts(func(o *Options) {
		o.Buffer = 20
		o.Aggregate = gnn.Sum
	}))
	for trial := 0; trial < 6; trial++ {
		users := randomPoints(3, rng)
		plan, err := planFull(pl, nil, PlanRequest{Kind: KindTiles, Users: users})
		if err != nil {
			t.Fatal(err)
		}
		assertPlanSound(t, pts, plan, gnn.Sum, rng, 80)
	}
}

func TestTileMSRSoundITVerify(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	pts := randomPoints(150, rng)
	pl := mustPlanner(t, pts, tileOpts(func(o *Options) {
		o.GroupVerify = false
		o.TileLimit = 5
	}))
	users := randomPoints(2, rng)
	plan, err := planFull(pl, nil, PlanRequest{Kind: KindTiles, Users: users})
	if err != nil {
		t.Fatal(err)
	}
	assertPlanSound(t, pts, plan, gnn.Max, rng, 60)
}

func TestTileMSRSoundNoPruning(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	pts := randomPoints(150, rng)
	pl := mustPlanner(t, pts, tileOpts(func(o *Options) {
		o.IndexPruning = false
		o.TileLimit = 5
	}))
	users := randomPoints(3, rng)
	plan, err := planFull(pl, nil, PlanRequest{Kind: KindTiles, Users: users})
	if err != nil {
		t.Fatal(err)
	}
	assertPlanSound(t, pts, plan, gnn.Max, rng, 60)
}

// Tile regions must dominate the circle regions they grow from: the
// inscribed seed square plus accepted tiles should cover at least the
// inscribed square of the rmax circle.
func TestTileSeedCoversInscribedSquare(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	pts := randomPoints(200, rng)
	optsT := tileOpts(nil)
	pl := mustPlanner(t, pts, optsT)
	users := randomPoints(3, rng)
	circle, err := planFull(pl, nil, PlanRequest{Kind: KindCircle, Users: users})
	if err != nil {
		t.Fatal(err)
	}
	tiles, err := planFull(pl, nil, PlanRequest{Kind: KindTiles, Users: users})
	if err != nil {
		t.Fatal(err)
	}
	for i := range users {
		sq := circle.Regions[i].Circle.InscribedSquare()
		if tiles.Regions[i].IsEmpty() {
			t.Fatalf("empty tile region %d", i)
		}
		seed := tiles.Regions[i].Tiles[0]
		if math.Abs(seed.Width()-sq.Width()) > 1e-9 {
			t.Fatalf("seed width %v != inscribed square width %v", seed.Width(), sq.Width())
		}
	}
}

func TestTileMSRTieDegenerate(t *testing.T) {
	// Two POIs equidistant from the single user: rmax = 0.
	pts := []geom.Point{geom.Pt(-1, 0), geom.Pt(1, 0)}
	pl := mustPlanner(t, pts, tileOpts(nil))
	plan, err := planFull(pl, nil, PlanRequest{Kind: KindTiles, Users: []geom.Point{geom.Pt(0, 0)}})
	if err != nil {
		t.Fatal(err)
	}
	r := plan.Regions[0]
	if !r.Contains(geom.Pt(0, 0)) {
		t.Fatal("degenerate region must contain the user")
	}
	if r.MaxExtent(geom.Pt(0, 0)) != 0 {
		t.Fatal("degenerate region should have zero extent")
	}
}

// --- Stats & options -----------------------------------------------------

func TestOptionsValidate(t *testing.T) {
	bad := []Options{
		{TileLimit: -1},
		{SplitLevel: -2},
		{Buffer: -1},
		{Directed: true, Theta: 0},
		{Directed: true, Theta: 4},
	}
	for i, o := range bad {
		if o.Validate() == nil {
			t.Fatalf("case %d should fail validation", i)
		}
	}
	if err := DefaultOptions().Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestNewPlannerErrors(t *testing.T) {
	if _, err := NewPlanner(nil, DefaultOptions()); err != ErrNoPOIs {
		t.Fatalf("want ErrNoPOIs, got %v", err)
	}
	o := DefaultOptions()
	o.TileLimit = -5
	if _, err := NewPlanner(randomPoints(3, rand.New(rand.NewSource(14))), o); err == nil {
		t.Fatal("invalid options accepted")
	}
}

func TestStatsAdd(t *testing.T) {
	a := Stats{GNNCalls: 1, IndexAccesses: 2, CandidatesChecked: 3, TileVerifies: 4, TilesAccepted: 5, TilesRejected: 6}
	b := a
	a.Add(b)
	if a.GNNCalls != 2 || a.IndexAccesses != 4 || a.CandidatesChecked != 6 ||
		a.TileVerifies != 8 || a.TilesAccepted != 10 || a.TilesRejected != 12 {
		t.Fatalf("Add wrong: %+v", a)
	}
}

func TestBufferedFewerPOIsThanBuffer(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	pts := randomPoints(5, rng)
	pl := mustPlanner(t, pts, tileOpts(func(o *Options) { o.Buffer = 50 }))
	users := randomPoints(3, rng)
	plan, err := planFull(pl, nil, PlanRequest{Kind: KindTiles, Users: users})
	if err != nil {
		t.Fatal(err)
	}
	assertPlanSound(t, pts, plan, gnn.Max, rng, 60)
}

// --- region type ----------------------------------------------------------

func TestSafeRegionDistances(t *testing.T) {
	r := TileRegion(
		geom.RectAround(geom.Pt(0, 0), 1),
		geom.RectAround(geom.Pt(3, 0), 1),
	)
	p := geom.Pt(1.5, 0)
	if got := r.MinDist(p); math.Abs(got-1) > 1e-12 {
		t.Fatalf("MinDist=%v want 1", got)
	}
	if got := r.MaxDist(p); math.Abs(got-math.Hypot(2, 0.5)) > 1e-12 {
		t.Fatalf("MaxDist=%v", got)
	}
	if !r.Contains(geom.Pt(0.5, 0.5)) || r.Contains(geom.Pt(2, 2)) {
		t.Fatal("Contains wrong")
	}
	if r.NumTiles() != 2 {
		t.Fatal("NumTiles")
	}
	br := r.BoundingRect()
	want := geom.Rect{Min: geom.Pt(-0.5, -0.5), Max: geom.Pt(3.5, 0.5)}
	if br != want {
		t.Fatalf("BoundingRect=%v want %v", br, want)
	}
	c := CircleRegion(geom.Pt(0, 0), 2)
	if c.NumTiles() != 0 || c.IsEmpty() {
		t.Fatal("circle region properties")
	}
	if got := c.MaxExtent(geom.Pt(0, 0)); got != 2 {
		t.Fatalf("circle MaxExtent=%v", got)
	}
}

func TestRegionKindString(t *testing.T) {
	if KindCircle.String() != "circle" || KindTiles.String() != "tiles" {
		t.Fatal("RegionKind.String")
	}
	if CircleRegion(geom.Pt(0, 0), 1).String() == "" || TileRegion().String() == "" {
		t.Fatal("SafeRegion.String")
	}
}

// --- ordering -------------------------------------------------------------

func TestRingCellCoverage(t *testing.T) {
	for k := 1; k <= 5; k++ {
		seen := map[[2]int]bool{}
		for i := 0; i < ringLength(k); i++ {
			gx, gy := ringCell(k, i)
			if max(abs(gx), abs(gy)) != k {
				t.Fatalf("layer %d pos %d: cell (%d,%d) not on ring", k, i, gx, gy)
			}
			key := [2]int{gx, gy}
			if seen[key] {
				t.Fatalf("layer %d: duplicate cell (%d,%d)", k, gx, gy)
			}
			seen[key] = true
		}
		if len(seen) != 8*k {
			t.Fatalf("layer %d: %d unique cells want %d", k, len(seen), 8*k)
		}
	}
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}

func TestOrderingTermination(t *testing.T) {
	// Without acceptances past the first layer the ordering must stop.
	o := newTileOrdering(geom.Pt(0, 0), 1, 100, false, 0, 0)
	count := 0
	for {
		_, ok := o.next()
		if !ok {
			break
		}
		count++
		if count > 8 {
			t.Fatal("ordering did not stop after one unaccepted layer")
		}
	}
	if count != 8 {
		t.Fatalf("expected the 8 tiles of layer 1, got %d", count)
	}
}

func TestOrderingGrowsWithAcceptance(t *testing.T) {
	o := newTileOrdering(geom.Pt(0, 0), 1, 3, false, 0, 0)
	count := 0
	for {
		_, ok := o.next()
		if !ok {
			break
		}
		o.markAccepted()
		count++
	}
	// Layers 1..3 fully enumerated: 8+16+24.
	if count != 48 {
		t.Fatalf("got %d tiles want 48", count)
	}
}

func TestDirectedOrderingSubset(t *testing.T) {
	undirected := map[geom.Rect]bool{}
	o1 := newTileOrdering(geom.Pt(0, 0), 1, 2, false, 0, 0)
	for {
		s, ok := o1.next()
		if !ok {
			break
		}
		o1.markAccepted()
		undirected[s] = true
	}
	o2 := newTileOrdering(geom.Pt(0, 0), 1, 2, true, 0, math.Pi/4)
	directedCount := 0
	for {
		s, ok := o2.next()
		if !ok {
			break
		}
		o2.markAccepted()
		directedCount++
		if !undirected[s] {
			t.Fatalf("directed tile %v not in undirected set", s)
		}
	}
	if directedCount == 0 || directedCount >= len(undirected) {
		t.Fatalf("directed should be a strict non-empty subset: %d of %d",
			directedCount, len(undirected))
	}
	// East-pointing heading must keep the east neighbor tile.
	o3 := newTileOrdering(geom.Pt(0, 0), 1, 1, true, 0, math.Pi/6)
	found := false
	for {
		s, ok := o3.next()
		if !ok {
			break
		}
		if s.Center() == geom.Pt(1, 0) {
			found = true
		}
	}
	if !found {
		t.Fatal("east tile missing from east-heading cone")
	}
}
