package sim

import (
	"testing"

	"mpn/internal/gnn"
)

// TestRunIncrementalProtocol replays one workload under the incremental
// maintenance protocol and checks the outcome accounting: every update
// is classified, the non-incremental run classifies everything as a
// full replan, and the incremental run actually reuses plans (partial
// or kept outcomes appear — the protocol the paper proposes).
func TestRunIncrementalProtocol(t *testing.T) {
	pois, group := testWorkload(t, 3)

	base := MethodConfig(MethodTile, gnn.Max, 0)
	base.Core.TileLimit = 8
	base.MaxSteps = 400

	full, err := Run(pois, group, base)
	if err != nil {
		t.Fatal(err)
	}
	if full.FullReplans != full.Updates || full.PartialReplans != 0 || full.KeptPlans != 0 {
		t.Fatalf("non-incremental outcome mix %d/%d/%d over %d updates",
			full.FullReplans, full.PartialReplans, full.KeptPlans, full.Updates)
	}

	inc := base
	inc.Incremental = true
	incMet, err := Run(pois, group, inc)
	if err != nil {
		t.Fatal(err)
	}
	if got := incMet.FullReplans + incMet.PartialReplans + incMet.KeptPlans; got != incMet.Updates {
		t.Fatalf("incremental outcomes %d do not sum to updates %d", got, incMet.Updates)
	}
	if incMet.PartialReplans+incMet.KeptPlans == 0 {
		t.Fatalf("incremental run never reused a plan: %d full / %d partial / %d kept",
			incMet.FullReplans, incMet.PartialReplans, incMet.KeptPlans)
	}
}

// TestRunDeltaWireAccounting: the delta wire protocol changes only the
// bytes/packets accounting, never the protocol itself — updates,
// outcome mix, and messages match the full-wire run exactly, while
// unchanged regions stop shipping bytes (DeltaNotifies > 0, region
// bytes and packets strictly shrink on a kept/partial-heavy workload).
func TestRunDeltaWireAccounting(t *testing.T) {
	pois, group := testWorkload(t, 3)
	cfg := MethodConfig(MethodTile, gnn.Max, 0)
	cfg.Core.TileLimit = 8
	cfg.MaxSteps = 400
	cfg.Incremental = true

	full, err := Run(pois, group, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if full.DeltaNotifies != 0 || full.FullNotifies != full.Updates*len(group) {
		t.Fatalf("full-wire notify mix: %d full / %d delta over %d updates",
			full.FullNotifies, full.DeltaNotifies, full.Updates)
	}

	cfg.DeltaWire = true
	delta, err := Run(pois, group, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if delta.Updates != full.Updates || delta.KeptPlans != full.KeptPlans ||
		delta.PartialReplans != full.PartialReplans || delta.FullReplans != full.FullReplans ||
		delta.UplinkMessages != full.UplinkMessages || delta.DownlinkMessages != full.DownlinkMessages {
		t.Fatalf("delta wire changed the protocol:\n full  %+v\n delta %+v", full, delta)
	}
	if delta.PartialReplans+delta.KeptPlans == 0 {
		t.Skip("workload produced no reuse; nothing for deltas to save")
	}
	if delta.DeltaNotifies == 0 {
		t.Fatal("delta wire run shipped no delta notifications")
	}
	if delta.FullNotifies+delta.DeltaNotifies != full.FullNotifies {
		t.Fatalf("notify totals diverge: %d+%d vs %d",
			delta.FullNotifies, delta.DeltaNotifies, full.FullNotifies)
	}
	if delta.RegionBytes >= full.RegionBytes {
		t.Fatalf("delta wire did not shrink region bytes: %d vs %d", delta.RegionBytes, full.RegionBytes)
	}
	if delta.Packets > full.Packets {
		t.Fatalf("delta wire inflated packets: %d vs %d", delta.Packets, full.Packets)
	}
}
