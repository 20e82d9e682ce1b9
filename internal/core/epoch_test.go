package core

import (
	"math/rand"
	"testing"

	"mpn/internal/geom"
)

// epochPlanner builds a small deterministic planner for the epoch tests.
func epochPlanner(t *testing.T, buffer int) *Planner {
	t.Helper()
	rng := rand.New(rand.NewSource(11))
	pois := make([]geom.Point, 2000)
	for i := range pois {
		pois[i] = geom.Pt(rng.Float64(), rng.Float64())
	}
	opts := DefaultOptions()
	opts.TileLimit = 8
	opts.Buffer = buffer
	planner, err := NewPlanner(pois, opts)
	if err != nil {
		t.Fatal(err)
	}
	return planner
}

// TestEpochSemantics drives the incremental tile planner through the
// kept / partial / full outcomes and asserts the epoch contract: kept
// advances nothing, partial advances exactly the regrown slots, a full
// replan advances every slot whose content changed, and epochs are
// monotone throughout.
func TestEpochSemantics(t *testing.T) {
	planner := epochPlanner(t, 30)
	ws := NewWorkspace()
	var st PlanState

	users := []geom.Point{geom.Pt(0.5, 0.5), geom.Pt(0.52, 0.51), geom.Pt(0.49, 0.53)}
	if _, out, err := planner.Plan(ws, PlanRequest{Kind: KindTiles, Users: users, State: &st}); err != nil || out != IncFull {
		t.Fatalf("first call: out=%v err=%v", out, err)
	}
	epochs := append([]uint64(nil), st.Epochs()...)
	if len(epochs) != len(users) {
		t.Fatalf("epoch vector len=%d want %d", len(epochs), len(users))
	}
	for i, e := range epochs {
		if e != 1 {
			t.Fatalf("slot %d initial epoch %d, want 1", i, e)
		}
	}

	// In-region jitter: kept, epochs untouched.
	jit := make([]geom.Point, len(users))
	copy(jit, users)
	jit[1] = geom.Pt(users[1].X+1e-6, users[1].Y-1e-6)
	if !st.Regions()[1].Contains(jit[1]) {
		t.Skip("jitter escaped the region; workload unsuitable")
	}
	_, out, err := planner.Plan(ws, PlanRequest{Kind: KindTiles, Users: jit, State: &st})
	if err != nil || out != IncKept {
		t.Fatalf("jitter: out=%v err=%v", out, err)
	}
	for i, e := range st.Epochs() {
		if e != epochs[i] {
			t.Fatalf("kept plan advanced slot %d: %d → %d", i, epochs[i], e)
		}
	}

	// Walk user 0 just outside her region. A partial regrow must advance
	// the dirty slot and only slots whose regions actually changed; a
	// full fallback advances everyone (the regions were all regrown).
	esc := make([]geom.Point, len(users))
	copy(esc, users)
	r0 := st.Regions()[0]
	step := 1e-4
	for r0.Contains(esc[0]) {
		esc[0] = geom.Pt(esc[0].X+step, esc[0].Y+step)
		step *= 2
		if step > 1 {
			t.Fatal("could not escape region 0")
		}
	}
	prevRegions := append([]SafeRegion(nil), st.Regions()...)
	_, out, err = planner.Plan(ws, PlanRequest{Kind: KindTiles, Users: esc, State: &st})
	if err != nil {
		t.Fatal(err)
	}
	after := st.Epochs()
	switch out {
	case IncPartial:
		if after[0] != epochs[0]+1 {
			t.Fatalf("dirty slot 0 epoch %d, want %d", after[0], epochs[0]+1)
		}
		for i := 1; i < len(after); i++ {
			changed := !regionEqual(prevRegions[i], st.Regions()[i])
			advanced := after[i] != epochs[i]
			if changed != advanced {
				t.Fatalf("slot %d: changed=%v advanced=%v", i, changed, advanced)
			}
		}
	case IncFull:
		for i := range after {
			changed := !regionEqual(prevRegions[i], st.Regions()[i])
			if changed && after[i] == epochs[i] {
				t.Fatalf("full replan changed slot %d without advancing its epoch", i)
			}
		}
	default:
		t.Fatalf("escape produced %v", out)
	}
	for i := range after {
		if after[i] < epochs[i] {
			t.Fatalf("slot %d epoch went backwards: %d → %d", i, epochs[i], after[i])
		}
	}
}

// TestEpochInvalidateAndChurn covers the reset paths: Invalidate keeps
// the vector monotone across the forced replan, and a group-size change
// restarts every slot past the old maximum.
func TestEpochInvalidateAndChurn(t *testing.T) {
	planner := epochPlanner(t, 30)
	ws := NewWorkspace()
	var st PlanState

	users := []geom.Point{geom.Pt(0.4, 0.4), geom.Pt(0.43, 0.41)}
	if _, _, err := planner.Plan(ws, PlanRequest{Kind: KindTiles, Users: users, State: &st}); err != nil {
		t.Fatal(err)
	}
	before := append([]uint64(nil), st.Epochs()...)

	st.Invalidate()
	if _, out, err := planner.Plan(ws, PlanRequest{Kind: KindTiles, Users: users, State: &st}); err != nil || out != IncFull {
		t.Fatalf("post-Invalidate: out=%v err=%v", out, err)
	}
	for i, e := range st.Epochs() {
		if e <= before[i] {
			t.Fatalf("slot %d epoch %d did not advance past %d after Invalidate", i, e, before[i])
		}
	}

	// Membership churn: one more user. Every slot restarts past the old
	// maximum, so a coordinator that kept per-slot epochs can never
	// confuse an old slot's region with a new one's.
	prevMax := uint64(0)
	for _, e := range st.Epochs() {
		if e > prevMax {
			prevMax = e
		}
	}
	grown := append(append([]geom.Point(nil), users...), geom.Pt(0.45, 0.44))
	if _, out, err := planner.Plan(ws, PlanRequest{Kind: KindTiles, Users: grown, State: &st}); err != nil || out != IncFull {
		t.Fatalf("churn: out=%v err=%v", out, err)
	}
	if len(st.Epochs()) != len(grown) {
		t.Fatalf("epoch vector len=%d want %d", len(st.Epochs()), len(grown))
	}
	for i, e := range st.Epochs() {
		if e <= prevMax {
			t.Fatalf("slot %d epoch %d not past old max %d after churn", i, e, prevMax)
		}
	}
}

// TestEpochCircleKeptAndPartial mirrors the contract for the circle
// planner: a kept plan advances nothing; a partial advances exactly the
// dirty member.
func TestEpochCircleKeptAndPartial(t *testing.T) {
	planner := epochPlanner(t, 0)
	ws := NewWorkspace()
	var st PlanState

	users := []geom.Point{geom.Pt(0.5, 0.5), geom.Pt(0.505, 0.502)}
	if _, out, err := planner.Plan(ws, PlanRequest{Kind: KindCircle, Users: users, State: &st}); err != nil || out != IncFull {
		t.Fatalf("first: out=%v err=%v", out, err)
	}
	base := append([]uint64(nil), st.Epochs()...)

	if _, out, err := planner.Plan(ws, PlanRequest{Kind: KindCircle, Users: users, State: &st}); err != nil || out != IncKept {
		t.Skipf("same-location recheck not kept (out=%v err=%v)", out, err)
	}
	for i, e := range st.Epochs() {
		if e != base[i] {
			t.Fatalf("kept circle plan advanced slot %d", i)
		}
	}

	// Nudge user 1 just outside her circle, hunting for an IncPartial.
	r := st.Regions()[1]
	loc := users[1]
	step := 1e-5
	for r.Contains(loc) {
		loc = geom.Pt(loc.X+step, loc.Y)
		step *= 2
		if step > 1 {
			t.Fatal("never escaped circle")
		}
	}
	moved := []geom.Point{users[0], loc}
	_, out, err := planner.Plan(ws, PlanRequest{Kind: KindCircle, Users: moved, State: &st})
	if err != nil {
		t.Fatal(err)
	}
	if out == IncPartial {
		after := st.Epochs()
		if after[1] != base[1]+1 {
			t.Fatalf("dirty circle slot epoch %d, want %d", after[1], base[1]+1)
		}
		if after[0] != base[0] {
			t.Fatalf("clean circle slot advanced: %d → %d", base[0], after[0])
		}
	}
}
