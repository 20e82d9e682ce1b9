package core

import (
	"encoding/binary"
	"flag"
	"fmt"
	"hash"
	"hash/fnv"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"mpn/internal/geom"
	"mpn/internal/gnn"
)

// updateGolden rewrites testdata/plan_golden.txt from the current
// planner. Each line carries two hashes (see hashPlan). The decisions
// column was recorded at the commit BEFORE the change under test — first
// b146fad, ahead of the verification memo; last 0447458, ahead of the
// Divide-Verify pre-reject — so the corpus proves the faster planner
// makes the same decisions as the slower one. A change that only removes
// work re-records the work column and must leave the decisions column
// byte for byte as it found it; regenerate that one only in a change
// that means to alter plans. The first such change deleted the
// retained-region trim of the partial regrow: it re-recorded the 36
// streams where the trim had fired and left the other 13 lines, both
// columns, as they were. The second sent every update with most of a
// group of at most three dirty to the full regrow: it re-recorded the 37
// streams with m ≤ 3 and left the 12 with m = 5 as they were.
var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/plan_golden.txt from the current planner")

const goldenPath = "testdata/plan_golden.txt"

// goldenTally counts, per stream, the planning paths the corpus is
// required to cover. The tallies are part of the golden line: a change
// that silently reroutes updates (say, partial regrows that start
// falling back) fails the corpus even if every plan it still produces
// hashes the same.
type goldenTally struct {
	full, kept         int
	partial1, partial2 int // partial outcomes with exactly 1 / at least 2 dirty members
	majority           int // usable state, same optimum, full regrow chosen by regrowAll
	fallback           int // usable state, same optimum, a partial regrow that fell back
}

func (g *goldenTally) add(o goldenTally) {
	g.full += o.full
	g.kept += o.kept
	g.partial1 += o.partial1
	g.partial2 += o.partial2
	g.majority += o.majority
	g.fallback += o.fallback
}

func goldenLine(name string, sum goldenSum, g goldenTally) string {
	return fmt.Sprintf("%s decisions=%016x work=%016x full=%d kept=%d partial1=%d partial2=%d majority=%d fallback=%d",
		name, sum.decisions.Sum64(), sum.work.Sum64(), g.full, g.kept, g.partial1, g.partial2, g.majority, g.fallback)
}

// goldenSum is one stream's pair of hashes: what its plans decided, and
// how much verification work deciding it took.
type goldenSum struct{ decisions, work hash.Hash64 }

func hashU64(h hash.Hash64, v uint64) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], v)
	h.Write(b[:])
}

func hashF64(h hash.Hash64, v float64) { hashU64(h, math.Float64bits(v)) }

// hashPlan folds a plan into the stream's two hashes. decisions takes
// everything the plan decides — the outcome, the optimum, every region
// tile bit for bit — plus the two counters that are functions of those
// decisions alone (tiles accepted, candidate retrievals). work takes the
// counters of the effort spent getting there, which a sound pruning of
// Divide-Verify lowers without changing one decision.
func hashPlan(sum goldenSum, out IncOutcome, p Plan) {
	h := sum.decisions
	hashU64(h, uint64(out))
	hashU64(h, uint64(p.Best.Item.ID))
	hashF64(h, p.Best.Item.P.X)
	hashF64(h, p.Best.Item.P.Y)
	hashF64(h, p.Best.Dist)
	hashU64(h, uint64(len(p.Regions)))
	for _, r := range p.Regions {
		hashU64(h, uint64(r.Kind))
		hashU64(h, uint64(len(r.Tiles)))
		for _, s := range r.Tiles {
			hashF64(h, s.Min.X)
			hashF64(h, s.Min.Y)
			hashF64(h, s.Max.X)
			hashF64(h, s.Max.Y)
		}
	}
	hashU64(h, uint64(p.Stats.TilesAccepted))
	hashU64(h, uint64(p.Stats.IndexAccesses))

	h = sum.work
	hashU64(h, uint64(p.Stats.TileVerifies))
	hashU64(h, uint64(p.Stats.TilesRejected))
	hashU64(h, uint64(p.Stats.CandidatesChecked))
}

// escapeFrom returns the point just past region's boundary from u along
// angle a: doubling then bisection on Contains, as cmd/mpnbench's
// minimal-escape probe does.
func escapeFrom(region SafeRegion, u geom.Point, a float64) geom.Point {
	at := func(d float64) geom.Point { return geom.Pt(u.X+d*math.Cos(a), u.Y+d*math.Sin(a)) }
	hi := 1e-5
	for region.Contains(at(hi)) && hi < 1 {
		hi *= 2
	}
	lo := hi / 2
	for i := 0; i < 40; i++ {
		mid := (lo + hi) / 2
		if region.Contains(at(mid)) {
			lo = mid
		} else {
			hi = mid
		}
	}
	return at(hi * 1.05)
}

// goldenStream drives one seeded report stream through Planner.Plan with
// a retained PlanState and one reused workspace, and returns the stream
// hashes and path tallies. The step pattern mixes minimal escapes of one
// and two members (partial regrows, which also pile sub-tiles onto the
// regions; at m ≤ 3 an escape of most of the group takes the full regrow
// instead), a long stride (the regrown region cannot reach the member →
// full fallback, or the optimum moves), in-region drift (kept) and a
// whole-group teleport.
func goldenStream(t *testing.T, pl *Planner, m int, seed int64) (goldenSum, goldenTally) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	users := make([]geom.Point, m)
	dirs := make([]Direction, m)
	place := func() {
		c := geom.Pt(0.2+0.6*rng.Float64(), 0.2+0.6*rng.Float64())
		for i := range users {
			users[i] = geom.Pt(c.X+0.02*rng.Float64(), c.Y+0.02*rng.Float64())
			dirs[i] = Direction{Angle: 2 * math.Pi * rng.Float64()}
		}
	}
	place()

	var (
		st    PlanState
		tally goldenTally
		ws    = NewWorkspace()
		sum   = goldenSum{fnv.New64a(), fnv.New64a()}
	)
	for step := 0; step < 36; step++ {
		escape := func(i int) {
			users[i] = escapeFrom(st.Regions()[i], users[i], 2*math.Pi*rng.Float64())
		}
		switch {
		case step == 0:
		case step%12 == 11:
			place()
		case step%12 == 7:
			i := rng.Intn(m)
			a := 2 * math.Pi * rng.Float64()
			users[i] = geom.Pt(users[i].X+0.03*math.Cos(a), users[i].Y+0.03*math.Sin(a))
		case step%3 == 1:
			escape(step / 3 % m)
		case step%3 == 2 && m >= 2:
			i := step / 3 % m
			escape(i)
			escape((i + 1) % m)
		default:
			for i := range users {
				users[i] = geom.Pt(users[i].X+1e-7*rng.Float64(), users[i].Y-1e-7*rng.Float64())
			}
		}

		usable := st.Valid()
		prevBest := st.BestID()
		prev := st.Regions()
		plan, out, err := pl.Plan(ws, PlanRequest{Kind: KindTiles, Users: users, Dirs: dirs, State: &st})
		if err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
		hashPlan(sum, out, plan)

		ndirty := 0
		if usable {
			for i, u := range users {
				if !prev[i].Contains(u) {
					ndirty++
				}
			}
		}
		switch out {
		case IncKept:
			tally.kept++
		case IncFull:
			tally.full++
			switch {
			case !usable || prevBest != plan.Best.Item.ID:
			case regrowAll(m, ndirty):
				tally.majority++
			default:
				tally.fallback++
			}
		case IncPartial:
			if ndirty == 1 {
				tally.partial1++
			} else {
				tally.partial2++
			}
		}
	}
	return sum, tally
}

// TestPlanGoldenCorpus replays a seeded corpus over {max, sum} ×
// {b = 0, 50, 100} × {directed on/off} × m ∈ {1, 2, 3, 5} through
// Planner.Plan and requires every stream to reproduce, bit for bit, the
// plans and work counters recorded in testdata/plan_golden.txt. The
// work counters are hashed too, in their own column, because they are
// what the end-to-end benchmark reports (core.tile_verifies_per_plan): a
// change in them is either intended and re-recorded, or a surprise.
func TestPlanGoldenCorpus(t *testing.T) {
	pts := randomPoints(3000, rand.New(rand.NewSource(97)))

	var lines []string
	var total goldenTally
	seed := int64(1000)
	for _, agg := range []gnn.Aggregate{gnn.Max, gnn.Sum} {
		for _, b := range []int{0, 50, 100} {
			for _, directed := range []bool{false, true} {
				opts := DefaultOptions()
				opts.Aggregate = agg
				opts.TileLimit = 10
				opts.Buffer = b
				opts.Directed = directed
				opts.Theta = math.Pi / 3
				pl := mustPlanner(t, pts, opts)
				for _, m := range []int{1, 2, 3, 5} {
					seed++
					sum, tally := goldenStream(t, pl, m, seed)
					total.add(tally)
					lines = append(lines, goldenLine(fmt.Sprintf("%v/b=%d/directed=%v/m=%d", agg, b, directed, m), sum, tally))
				}
			}
		}
	}

	// The pruning ablation hands every live POI to the verifier, so the
	// memo's id → slot table sees the whole data set. (MAX only: SUM pays
	// one hyperbola minimization per POI per attempt with or without the
	// memo — half a minute of test time for no extra coverage.)
	{
		opts := DefaultOptions()
		opts.TileLimit = 10
		opts.IndexPruning = false
		seed++
		sum, tally := goldenStream(t, mustPlanner(t, pts, opts), 3, seed)
		total.add(tally)
		lines = append(lines, goldenLine("max/nopruning/m=3", sum, tally))
	}

	// The corpus must exercise every path the memo touches, or a green
	// run proves less than it claims.
	if total.full == 0 || total.kept == 0 || total.partial1 == 0 || total.partial2 == 0 || total.majority == 0 || total.fallback == 0 {
		t.Fatalf("corpus does not cover every planning path: %+v", total)
	}

	got := strings.Join(lines, "\n") + "\n"
	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(goldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s (%+v)", goldenPath, total)
		return
	}
	want, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatal(err)
	}
	wantLines := strings.Split(strings.TrimSuffix(string(want), "\n"), "\n")
	if len(wantLines) != len(lines) {
		t.Fatalf("corpus has %d streams, golden file %d", len(lines), len(wantLines))
	}
	for i := range lines {
		if lines[i] != wantLines[i] {
			t.Errorf("stream diverged from the recorded plans\n got: %s\nwant: %s", lines[i], wantLines[i])
		}
	}
}
