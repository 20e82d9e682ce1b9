package mpn

import (
	"bytes"
	"errors"
	"math"
	"math/rand"
	"sync"
	"testing"

	"mpn/internal/core"
)

func testPOIs(n int, seed int64) []Point {
	rng := rand.New(rand.NewSource(seed))
	pts := make([]Point, n)
	for i := range pts {
		pts[i] = Pt(rng.Float64(), rng.Float64())
	}
	return pts
}

func TestNewServerDefaults(t *testing.T) {
	s, err := NewServer(testPOIs(500, 1))
	if err != nil {
		t.Fatal(err)
	}
	if s.NumPOIs() != 500 {
		t.Fatalf("NumPOIs=%d", s.NumPOIs())
	}
}

func TestNewServerErrors(t *testing.T) {
	if _, err := NewServer(nil); err == nil {
		t.Fatal("empty POI set accepted")
	}
	bad := []Option{
		WithMethod(Method(99)),
		WithAggregate(Aggregate(99)),
		WithTileLimit(0),
		WithSplitLevel(-1),
		WithBuffer(-1),
		WithTheta(0),
		WithTheta(4),
	}
	for i, o := range bad {
		if _, err := NewServer(testPOIs(5, 2), o); err == nil {
			t.Fatalf("bad option %d accepted", i)
		}
	}
}

func TestRegisterAndUpdateLifecycle(t *testing.T) {
	for _, method := range []Method{Circle, Tile, TileDirected} {
		s, err := NewServer(testPOIs(800, 3),
			WithMethod(method), WithTileLimit(6), WithBuffer(20))
		if err != nil {
			t.Fatal(err)
		}
		users := []Point{Pt(0.2, 0.2), Pt(0.3, 0.25), Pt(0.25, 0.35)}
		g, err := s.Register(users, nil)
		if err != nil {
			t.Fatal(err)
		}
		if g.Size() != 3 || g.Updates() != 1 {
			t.Fatalf("%v: size=%d updates=%d", method, g.Size(), g.Updates())
		}
		mp := g.MeetingPoint()
		if mp == (Point{}) {
			t.Fatalf("%v: zero meeting point", method)
		}
		for i, u := range users {
			if !g.Region(i).Contains(u) {
				t.Fatalf("%v: region %d misses its user", method, i)
			}
			if g.NeedsUpdate(i, u) {
				t.Fatalf("%v: in-region location flagged", method)
			}
		}
		// A far-away location must trigger.
		if !g.NeedsUpdate(0, Pt(0.9, 0.9)) {
			t.Fatalf("%v: escape not detected", method)
		}
		// Out-of-range index is conservative.
		if !g.NeedsUpdate(99, users[0]) {
			t.Fatal("bad index should report needs-update")
		}
		// Update with moved users.
		moved := []Point{Pt(0.5, 0.5), Pt(0.55, 0.5), Pt(0.5, 0.55)}
		if err := g.Update(moved, nil); err != nil {
			t.Fatal(err)
		}
		if g.Updates() != 2 {
			t.Fatalf("updates=%d", g.Updates())
		}
		if err := g.Update(moved[:2], nil); err == nil {
			t.Fatal("wrong group size accepted")
		}
	}
}

func TestRegisterEmpty(t *testing.T) {
	s, _ := NewServer(testPOIs(10, 4))
	if _, err := s.Register(nil, nil); err != ErrNoGroup {
		t.Fatalf("want ErrNoGroup got %v", err)
	}
	if _, _, _, err := s.Plan(nil, nil); err != ErrNoGroup {
		t.Fatalf("want ErrNoGroup got %v", err)
	}
}

// TestNonFiniteLocationRefused: a NaN or ±Inf coordinate used to be
// planned as if that member did not exist — a wrong optimum for the whole
// group and a region that does not contain her — with a nil error.
func TestNonFiniteLocationRefused(t *testing.T) {
	good := []Point{Pt(0.4, 0.4), Pt(0.5, 0.5), Pt(0.5, 0.45)}
	net := testRoadNet(t)
	for _, method := range []Method{Circle, Tile, TileDirected, NetRange} {
		opt := WithMethod(method)
		if method == NetRange {
			opt = WithRoadNetwork(net, netPOINodes(net, 9))
		}
		s, err := NewServer(testPOIs(300, 4), opt)
		if err != nil {
			t.Fatal(err)
		}
		g, err := s.Register(good, nil)
		if err != nil {
			t.Fatal(err)
		}
		for _, bad := range []Point{
			Pt(math.NaN(), 0.5), Pt(0.5, math.NaN()), Pt(math.Inf(1), 0.5), Pt(0.5, math.Inf(-1)),
		} {
			users := []Point{good[0], bad, good[2]}
			_, regErr := s.Register(users, nil)
			if regErr == nil {
				t.Fatalf("%v: Register accepted %v", method, bad)
			}
			if err := g.Update(users, nil); err == nil {
				t.Fatalf("%v: Update accepted %v", method, bad)
			}
			if err := g.SubmitUpdate(users, nil); err == nil {
				t.Fatalf("%v: SubmitUpdate accepted %v", method, bad)
			}
			if _, regions, _, err := s.Plan(users, nil); !errors.Is(err, regErr) || regions != nil {
				t.Fatalf("%v: Plan(%v) = %d regions, err %v; want Register's error %v", method, bad, len(regions), err, regErr)
			}
		}
		if g.Updates() != 1 {
			t.Fatalf("%v: refused locations were planned (%d updates)", method, g.Updates())
		}
		s.Close()
	}
}

func TestMeetingPointIsOptimal(t *testing.T) {
	pois := testPOIs(400, 5)
	users := []Point{Pt(0.4, 0.4), Pt(0.6, 0.6)}

	maxServer, _ := NewServer(pois, WithAggregate(MinimizeMax), WithMethod(Circle))
	mp, _, _, err := maxServer.Plan(users, nil)
	if err != nil {
		t.Fatal(err)
	}
	best := math.Inf(1)
	var bestP Point
	for _, p := range pois {
		d := math.Max(p.Dist(users[0]), p.Dist(users[1]))
		if d < best {
			best, bestP = d, p
		}
	}
	if mp != bestP {
		t.Fatalf("max meeting point %v want %v", mp, bestP)
	}

	sumServer, _ := NewServer(pois, WithAggregate(MinimizeSum), WithMethod(Circle))
	mp, _, _, err = sumServer.Plan(users, nil)
	if err != nil {
		t.Fatal(err)
	}
	best = math.Inf(1)
	for _, p := range pois {
		d := p.Dist(users[0]) + p.Dist(users[1])
		if d < best {
			best, bestP = d, p
		}
	}
	if mp != bestP {
		t.Fatalf("sum meeting point %v want %v", mp, bestP)
	}
}

func TestDirectedUsesHeadings(t *testing.T) {
	s, err := NewServer(testPOIs(600, 6), WithMethod(TileDirected), WithTileLimit(8))
	if err != nil {
		t.Fatal(err)
	}
	users := []Point{Pt(0.3, 0.3), Pt(0.4, 0.35)}
	dirs := []Direction{{Angle: 0, Theta: math.Pi / 4}, {Angle: math.Pi / 2, Theta: math.Pi / 4}}
	g, err := s.Register(users, dirs)
	if err != nil {
		t.Fatal(err)
	}
	// The region should extend farther along the heading than against it.
	r := g.Region(0)
	br := r.BoundingRect()
	forward := br.Max.X - users[0].X
	backward := users[0].X - br.Min.X
	if forward < backward {
		t.Fatalf("directed region not biased toward heading: fwd=%v back=%v", forward, backward)
	}
}

// TestWithThetaDerivedHeadings pins how a non-default WithTheta meets
// the headings the server derives on a nil-dirs Update: the member who
// moved is planned along her bearing within the fixed π/8 cone, and the
// still member keeps the zero Direction, which the planner reads as
// WithTheta's cone. The group's regions must equal, byte for byte, the
// planner's with those dirs, and differ from the plan that gives the
// moved member the option's cone instead.
func TestWithThetaDerivedHeadings(t *testing.T) {
	s, err := NewServer(testPOIs(2000, 12), WithMethod(TileDirected), WithTheta(math.Pi/2), WithTileLimit(8))
	if err != nil {
		t.Fatal(err)
	}
	users := []Point{Pt(0.4, 0.4), Pt(0.43, 0.42)}
	g, err := s.Register(users, nil)
	if err != nil {
		t.Fatal(err)
	}
	moved := []Point{Pt(0.404, 0.403), users[1]}
	if err := g.Update(moved, nil); err != nil {
		t.Fatal(err)
	}
	bearing := math.Atan2(moved[0].Y-users[0].Y, moved[0].X-users[0].X)
	plan := func(dirs []Direction) core.Plan {
		t.Helper()
		p, _, err := s.st.Planner.Plan(core.NewWorkspace(), core.PlanRequest{Kind: core.KindTiles, Users: moved, Dirs: dirs})
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	same := func(p core.Plan) bool {
		for i := range moved {
			if !bytes.Equal(EncodeRegion(g.Region(i)), EncodeRegion(p.Regions[i])) {
				return false
			}
		}
		return true
	}
	if !same(plan([]Direction{{Angle: bearing, Theta: math.Pi / 8}, {}})) {
		t.Fatal("derived headings are not the moved member's bearing within π/8 and the still member's zero Direction")
	}
	if same(plan([]Direction{{Angle: bearing}, {}})) {
		t.Fatal("the moved member's cone made no difference, so the test proves nothing")
	}
}

func TestEncodeDecodeRegion(t *testing.T) {
	s, _ := NewServer(testPOIs(500, 7), WithMethod(TileDirected), WithTileLimit(6))
	users := []Point{Pt(0.5, 0.5), Pt(0.52, 0.51)}
	g, err := s.Register(users, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := range users {
		r := g.Region(i)
		enc := EncodeRegion(r)
		dec, err := DecodeRegion(enc)
		if err != nil {
			t.Fatal(err)
		}
		if dec.NumTiles() != r.NumTiles() {
			t.Fatalf("tile count %d != %d", dec.NumTiles(), r.NumTiles())
		}
		// The decoded region is the original, so it stays within the
		// original's bounding box and contains the user's location.
		if !r.BoundingRect().ContainsRect(dec.BoundingRect()) {
			t.Fatal("decoded region escapes original bounds")
		}
		if !dec.Contains(users[i]) {
			t.Fatal("decoded region lost the user location")
		}
	}
	// Circle round trip is exact.
	cs, _ := NewServer(testPOIs(500, 8), WithMethod(Circle))
	cg, err := cs.Register(users, nil)
	if err != nil {
		t.Fatal(err)
	}
	r := cg.Region(0)
	dec, err := DecodeRegion(EncodeRegion(r))
	if err != nil {
		t.Fatal(err)
	}
	if dec.Circle != r.Circle {
		t.Fatalf("circle round trip %v != %v", dec.Circle, r.Circle)
	}
	if _, err := DecodeRegion([]byte{1, 2, 3}); err == nil {
		t.Fatal("garbage decoded")
	}
}

func TestGroupConcurrency(t *testing.T) {
	s, _ := NewServer(testPOIs(500, 9), WithMethod(Circle))
	users := []Point{Pt(0.4, 0.4), Pt(0.5, 0.5)}
	g, err := s.Register(users, nil)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for k := 0; k < 50; k++ {
				if rng.Intn(2) == 0 {
					_ = g.MeetingPoint()
					_ = g.NeedsUpdate(0, Pt(rng.Float64(), rng.Float64()))
					_ = g.Regions()
					_ = g.Stats()
				} else {
					locs := []Point{
						Pt(rng.Float64(), rng.Float64()),
						Pt(rng.Float64(), rng.Float64()),
					}
					if err := g.Update(locs, nil); err != nil {
						t.Error(err)
						return
					}
				}
			}
		}(int64(w))
	}
	wg.Wait()
	if g.Updates() < 2 {
		t.Fatal("no concurrent updates recorded")
	}
}

func TestStringers(t *testing.T) {
	if MinimizeMax.String() != "minimize-max" || MinimizeSum.String() != "minimize-sum" {
		t.Fatal("Aggregate strings")
	}
	if Circle.String() != "circle" || Tile.String() != "tile" || TileDirected.String() != "tile-directed" {
		t.Fatal("Method strings")
	}
}

func TestWithIncrementalLifecycle(t *testing.T) {
	for _, method := range []Method{Circle, Tile, TileDirected} {
		s, err := NewServer(testPOIs(800, 5),
			WithMethod(method), WithTileLimit(6), WithBuffer(20), WithIncremental())
		if err != nil {
			t.Fatal(err)
		}
		sub := s.Subscribe(16)
		users := []Point{Pt(0.4, 0.4), Pt(0.45, 0.42), Pt(0.42, 0.46)}
		g, err := s.Register(users, nil)
		if err != nil {
			t.Fatal(err)
		}
		if n := <-sub.C; n.Outcome != ReplanFull || n.Seq != 1 {
			t.Fatalf("%v registration: %+v", method, n)
		}

		// A duplicate report keeps the whole plan.
		if err := g.Update(users, nil); err != nil {
			t.Fatal(err)
		}
		if n := <-sub.C; n.Outcome != ReplanKept {
			t.Fatalf("%v duplicate report: outcome %v", method, n.Outcome)
		}
		if kept := s.Counters().Plans[ReplanKept]; kept != 1 {
			t.Fatalf("%v duplicate report: Counters counted %d kept plans, want 1", method, kept)
		}
		for i, u := range users {
			if g.NeedsUpdate(i, u) {
				t.Fatalf("%v: kept plan misses user %d", method, i)
			}
		}

		// The asynchronous path is served from the same retained plan.
		if err := g.SubmitUpdate(users, nil); err != nil {
			t.Fatal(err)
		}
		if n := <-sub.C; n.Outcome != ReplanKept {
			t.Fatalf("%v duplicate report (async): outcome %v", method, n.Outcome)
		}
		if err := g.Update(users[:1], nil); err == nil {
			t.Fatalf("%v: Update accepted a short location slice", method)
		}
		if err := g.SubmitUpdate(users[:1], nil); err == nil {
			t.Fatalf("%v: SubmitUpdate accepted a short location slice", method)
		}

		// Fresh regions regardless of what the retained plan would keep
		// come from re-registration.
		g.Unregister()
		if g, err = s.Register(users, nil); err != nil {
			t.Fatal(err)
		}
		if n := <-sub.C; n.Outcome != ReplanFull || n.Seq != 1 {
			t.Fatalf("%v re-registration: %+v", method, n)
		}

		// A whole-group teleport churns the result set: full replan with
		// fresh regions around the new locations.
		moved := []Point{Pt(0.72, 0.7), Pt(0.76, 0.72), Pt(0.74, 0.75)}
		if err := g.Update(moved, nil); err != nil {
			t.Fatal(err)
		}
		n := <-sub.C
		if n.Outcome != ReplanFull {
			t.Fatalf("%v teleport: outcome %v", method, n.Outcome)
		}
		for i, u := range moved {
			if !n.Regions[i].Contains(u) {
				t.Fatalf("%v teleport region %d misses its user", method, i)
			}
		}
		sub.Close()
		s.Close()
	}
}
