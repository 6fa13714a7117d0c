package exp

import (
	"bytes"
	"math"
	"testing"

	"coradd/internal/adapt"
	"coradd/internal/scenario"
)

// TestAdaptAblationShape is the adaptive-loop acceptance gate: on the
// drifting chrono-SSB stream (base mix → Figure-11 augmented mix), the
// adaptive observe→drift→redesign→migrate loop must strictly beat BOTH
// static designs on cumulative measured workload-seconds, and the
// warm-started redesign solve must explore no more nodes than a cold
// solve of the same instance.
func TestAdaptAblationShape(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	res, table, err := AdaptAblation(scenario.QuickScale())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Segments) == 0 {
		t.Fatal("no timeline segments")
	}

	// The acceptance criterion: the adaptive loop beats the static
	// base-mix design AND the static augmented-mix design.
	if !(res.AdaptCum < res.BaseCum) {
		t.Errorf("adaptive cum %.4f not strictly below static-base %.4f", res.AdaptCum, res.BaseCum)
	}
	if !(res.AdaptCum < res.AugCum) {
		t.Errorf("adaptive cum %.4f not strictly below static-augmented %.4f", res.AdaptCum, res.AugCum)
	}

	// The loop must have actually adapted: drift detected, a changed
	// redesign, at least one migration build deployed.
	if res.Report.Redesigns == 0 {
		t.Error("no redesign fired on the drifting stream")
	}
	changed := false
	for _, ri := range res.Report.RedesignLog {
		if ri.Changed {
			changed = true
		}
	}
	if !changed {
		t.Error("no redesign changed the design")
	}
	if res.Report.BuildsDone == 0 {
		t.Error("no migration builds completed")
	}

	// Incremental redesign: the warm-started solve of the real redesign
	// instance explores at most a cold solve's nodes.
	if res.WarmNodes <= 0 || res.ColdNodes <= 0 {
		t.Fatalf("missing warm/cold node telemetry (%d/%d)", res.WarmNodes, res.ColdNodes)
	}
	if res.WarmNodes > res.ColdNodes {
		t.Errorf("warm redesign solve explored %d nodes > cold %d", res.WarmNodes, res.ColdNodes)
	}

	// Until the first redesign the adaptive run serves the identical
	// state through the identical measurement, so it tracks the static
	// base design exactly at those checkpoints. (Afterwards the up-front
	// drops can legitimately make a mid-migration prefix transiently
	// worse.) All cumulative series are non-decreasing throughout.
	firstRedesign := res.Report.Observed + 1
	for _, e := range res.Report.Events {
		if e.Kind == adapt.EventRedesign {
			firstRedesign = e.Observed
			break
		}
	}
	prev := AdaptSegment{}
	for i, seg := range res.Segments {
		if seg.Events <= firstRedesign && math.Abs(seg.AdaptCum-seg.BaseCum) > 1e-9 {
			t.Errorf("segment %d (pre-redesign): adaptive cum %.4f != static-base %.4f",
				i, seg.AdaptCum, seg.BaseCum)
		}
		if seg.AdaptCum < prev.AdaptCum || seg.BaseCum < prev.BaseCum || seg.AugCum < prev.AugCum {
			t.Errorf("segment %d: a cumulative series decreased", i)
		}
		prev = seg
	}

	var buf bytes.Buffer
	table.Print(&buf)
	if buf.Len() == 0 {
		t.Error("empty table")
	}
}
