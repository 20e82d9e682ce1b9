package engine

import (
	"bytes"
	"errors"
	"math"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"mpn/internal/core"
	"mpn/internal/faultinject"
	"mpn/internal/geom"
	"mpn/internal/gnn"
	"mpn/internal/proto"
)

// headingRecorder is a planner that records the dirs of every call (nil
// stays nil) and fails the calls it is told to.
type headingRecorder struct {
	mu   sync.Mutex
	dirs [][]core.Direction
	fail bool
}

var errPlanFailed = errors.New("planner failed")

func (r *headingRecorder) plan(_ *core.Workspace, users []geom.Point, dirs []core.Direction) (geom.Point, []core.SafeRegion, core.Stats, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	var got []core.Direction
	if dirs != nil {
		got = append([]core.Direction{}, dirs...)
	}
	r.dirs = append(r.dirs, got)
	if r.fail {
		return geom.Point{}, nil, core.Stats{}, errPlanFailed
	}
	regions := make([]core.SafeRegion, len(users))
	for i, u := range users {
		regions[i] = core.CircleRegion(u, 0.1)
	}
	return users[0], regions, core.Stats{}, nil
}

func (r *headingRecorder) replan(ws *core.Workspace, st *core.PlanState, users []geom.Point, dirs []core.Direction) (geom.Point, []core.SafeRegion, core.Stats, core.IncOutcome, error) {
	meeting, regions, stats, err := r.plan(ws, users, dirs)
	if err == nil {
		st.Record(core.Plan{Regions: regions})
	}
	return meeting, regions, stats, core.IncFull, err
}

// last returns the dirs of the most recent planner call.
func (r *headingRecorder) last() []core.Direction {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.dirs[len(r.dirs)-1]
}

// headingsFrom is the heading rule stated independently of the engine:
// the bearing of each member's move from prev to cur within a cone of
// π/8, the zero Direction for a member who did not move.
func headingsFrom(prev, cur []geom.Point) []core.Direction {
	dirs := make([]core.Direction, len(cur))
	for i := range cur {
		if cur[i] != prev[i] {
			dirs[i] = core.Direction{Angle: math.Atan2(cur[i].Y-prev[i].Y, cur[i].X-prev[i].X), Theta: math.Pi / 8}
		}
	}
	return dirs
}

// TestDerivedHeadings pins the engine's heading contract on both engine
// kinds (a PlanWSFunc adapted by NewWS, and Options.Replan): explicit dirs
// reach the planner unchanged; registration passes nil dirs through as
// nil; a later nil-dirs Update or Submit reaches the planner with each
// member's bearing from the last successfully planned locations, and the
// zero Direction for a member who did not move; a planner error or an
// injected EnginePlan panic leaves that reference snapshot where it was.
func TestDerivedHeadings(t *testing.T) {
	for _, kind := range []string{"plan", "replan"} {
		t.Run(kind, func(t *testing.T) {
			r := &headingRecorder{}
			var e *Engine
			if kind == "plan" {
				e = NewWS(r.plan, Options{Shards: 1, Workers: 1})
			} else {
				e = NewWS(nil, Options{Shards: 1, Workers: 1, Replan: r.replan})
			}
			defer e.Close()
			check := func(step string, want []core.Direction) {
				t.Helper()
				if got := r.last(); !reflect.DeepEqual(got, want) {
					t.Fatalf("%s: planner got dirs %v, want %v", step, got, want)
				}
			}

			p := []geom.Point{geom.Pt(0.2, 0.2), geom.Pt(0.5, 0.5), geom.Pt(0.8, 0.3)}
			id, err := e.Register(p, nil)
			if err != nil {
				t.Fatal(err)
			}
			check("registration", nil)

			// Members 0 and 1 move, member 2 stays.
			q := []geom.Point{geom.Pt(0.25, 0.18), geom.Pt(0.45, 0.55), p[2]}
			if err := e.Update(id, q, nil); err != nil {
				t.Fatal(err)
			}
			want := headingsFrom(p, q)
			if want[0].Angle == 0 || want[1].Angle == 0 || want[2] != (core.Direction{}) {
				t.Fatalf("fixture headings %v: want two moved members and one still", want)
			}
			if want[0].Theta != headingTheta || want[1].Theta != headingTheta {
				t.Fatalf("fixture headings %v: want θ = headingTheta for the moved members", want)
			}
			check("update", want)

			explicit := []core.Direction{{Angle: 1}, {Angle: 2, Theta: 0.3}, {Angle: -1}}
			s := []geom.Point{geom.Pt(0.3, 0.2), geom.Pt(0.45, 0.6), geom.Pt(0.7, 0.3)}
			if err := e.Update(id, s, explicit); err != nil {
				t.Fatal(err)
			}
			check("explicit update", explicit)

			// An explicit plan advances the snapshot too; Submit derives
			// from it on the worker path.
			u := []geom.Point{geom.Pt(0.3, 0.25), geom.Pt(0.4, 0.6), geom.Pt(0.75, 0.25)}
			if err := e.Submit(id, u, nil); err != nil {
				t.Fatal(err)
			}
			e.quiesce(t)
			check("submit", headingsFrom(s, u))

			// Mismatched dirs are derived, as nil ones are.
			v := []geom.Point{geom.Pt(0.35, 0.25), geom.Pt(0.4, 0.6), geom.Pt(0.7, 0.2)}
			if err := e.Update(id, v, explicit[:1]); err != nil {
				t.Fatal(err)
			}
			check("mismatched update", headingsFrom(u, v))

			// A failed plan does not move the reference snapshot.
			w := []geom.Point{geom.Pt(0.9, 0.9), geom.Pt(0.1, 0.9), geom.Pt(0.5, 0.1)}
			r.mu.Lock()
			r.fail = true
			r.mu.Unlock()
			if err := e.Update(id, w, nil); !errors.Is(err, errPlanFailed) {
				t.Fatalf("failing update: err %v", err)
			}
			check("failing update", headingsFrom(v, w))
			r.mu.Lock()
			r.fail = false
			r.mu.Unlock()
			x := []geom.Point{geom.Pt(0.4, 0.3), geom.Pt(0.4, 0.6), geom.Pt(0.7, 0.25)}
			if err := e.Update(id, x, nil); err != nil {
				t.Fatal(err)
			}
			check("update after a planner error", headingsFrom(v, x))

			// Neither does a panic.
			faultinject.Arm(faultinject.Script{faultinject.EnginePlan: faultinject.PanicOn(1, "boom")})
			var pe *PanicError
			err = e.Update(id, w, nil)
			faultinject.Disarm()
			if !errors.As(err, &pe) {
				t.Fatalf("panicking update: err %v, want *PanicError", err)
			}
			y := []geom.Point{geom.Pt(0.4, 0.35), geom.Pt(0.35, 0.6), geom.Pt(0.7, 0.25)}
			if err := e.Update(id, y, nil); err != nil {
				t.Fatal(err)
			}
			check("update after a panic", headingsFrom(x, y))

			// Registration with explicit dirs passes them through.
			if _, err := e.Register(p, explicit); err != nil {
				t.Fatal(err)
			}
			check("explicit registration", explicit)
		})
	}
}

// directedPlanner is a real directed tile planner at the servers' default
// shape (α=30, b=100, θ=π/4, L=2) over uniform POIs.
func directedPlanner(t testing.TB, n int, seed int64) (*core.Planner, []geom.Point) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	pois := make([]geom.Point, n)
	for i := range pois {
		pois[i] = geom.Pt(rng.Float64(), rng.Float64())
	}
	opts := core.DefaultOptions()
	opts.Directed = true
	opts.Buffer = 100
	pl, err := core.NewPlanner(pois, opts)
	if err != nil {
		t.Fatal(err)
	}
	return pl, pois
}

// TestDirectedPlansMatchPlanner is the differential fence for derived
// headings: one group walks 60 steps with nil dirs through a directed
// tile engine, with and without incremental maintenance, alternating the
// synchronous and the worker path. Member 0 drifts steadily, member 1
// wanders, member 2 reverses direction on every step (so her cone flips
// each time), and every seventh step nobody moves. At every step the
// engine's meeting point and encoded regions must be byte-identical to
// core.Planner.Plan called with the headings the test derives itself;
// every member lies inside her region, and the meeting point is optimal
// by brute force. The headings must also matter: some steps must differ
// from a nil-heading plan.
func TestDirectedPlansMatchPlanner(t *testing.T) {
	for _, incremental := range []bool{false, true} {
		name := "scratch"
		if incremental {
			name = "incremental"
		}
		t.Run(name, func(t *testing.T) {
			pl, pois := directedPlanner(t, 2000, 7)
			var e *Engine
			var ref *core.PlanState
			if incremental {
				e = NewWS(nil, Options{Shards: 1, Workers: 1, Replan: PlannerKindIncFunc(pl, core.KindTiles, nil)})
				ref = &core.PlanState{}
			} else {
				e = NewWS(PlannerKindWSFunc(pl, core.KindTiles, nil), Options{Shards: 1, Workers: 1})
			}
			defer e.Close()
			ws := core.NewWorkspace()
			refPlan := func(users []geom.Point, dirs []core.Direction, st *core.PlanState) core.Plan {
				t.Helper()
				p, _, err := pl.Plan(ws, core.PlanRequest{Kind: core.KindTiles, Users: users, Dirs: dirs, State: st})
				if err != nil {
					t.Fatal(err)
				}
				return p
			}

			rng := rand.New(rand.NewSource(11))
			users := []geom.Point{geom.Pt(0.3, 0.3), geom.Pt(0.6, 0.5), geom.Pt(0.45, 0.7)}
			id, err := e.Register(users, nil)
			if err != nil {
				t.Fatal(err)
			}
			refPlan(users, nil, ref)
			prev := append([]geom.Point(nil), users...)
			differs := 0
			for step := 1; step <= 60; step++ {
				cur := append([]geom.Point(nil), prev...)
				if step%7 != 0 {
					cur[0] = geom.Pt(prev[0].X+0.004, prev[0].Y+0.003)
					cur[1] = geom.Pt(prev[1].X+0.01*(rng.Float64()-0.5), prev[1].Y+0.01*(rng.Float64()-0.5))
					flip := 0.006
					if step%2 == 0 {
						flip = -flip
					}
					cur[2] = geom.Pt(prev[2].X+flip, prev[2].Y-flip/2)
				}
				if step%2 == 0 {
					err = e.Update(id, cur, nil)
				} else if err = e.Submit(id, cur, nil); err == nil {
					e.quiesce(t)
				}
				if err != nil {
					t.Fatal(err)
				}

				dirs := headingsFrom(prev, cur)
				want := refPlan(cur, dirs, ref)
				meeting, regions := e.Meeting(id), e.Regions(id)
				if meeting != want.Best.Item.P {
					t.Fatalf("step %d: engine meets at %v, planner at %v", step, meeting, want.Best.Item.P)
				}
				for i := range cur {
					if !bytes.Equal(proto.EncodeRegion(regions[i]), proto.EncodeRegion(want.Regions[i])) {
						t.Fatalf("step %d: member %d's region differs from the planner's", step, i)
					}
					if !regions[i].Contains(cur[i]) {
						t.Fatalf("step %d: member %d at %v lies outside her region", step, i, cur[i])
					}
				}
				agg := pl.Options().Aggregate
				if best := gnn.BruteTopK(pois, cur, agg, 1)[0]; agg.PointDist(meeting, cur) != best.Dist {
					t.Fatalf("step %d: meeting %v is not optimal (brute force: %v)", step, meeting, best.Item.P)
				}
				if !incremental {
					undirected := refPlan(cur, nil, nil)
					for i := range cur {
						if !bytes.Equal(proto.EncodeRegion(undirected.Regions[i]), proto.EncodeRegion(want.Regions[i])) {
							differs++
							break
						}
					}
				}
				prev = cur
			}
			if !incremental && differs == 0 {
				t.Fatal("no step's directed plan differs from its nil-heading plan")
			}
		})
	}
}
