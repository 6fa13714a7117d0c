package exp

import (
	"math"
	"testing"

	"coradd/internal/ilp"
	"coradd/internal/scenario"
)

// TestAdaptCalibrationFlags is the calibration-report acceptance gate: on
// the adapt scenario's seeded stream the report must deterministically
// flag the known-miscalibrated templates (the Q3.3 family the cost model
// over-prices on correlation-map paths, and Q1.2 which it under-prices on
// the base scan), account every stream event to exactly one serving
// object, and hand the -solveprof surface a non-empty sample trail.
func TestAdaptCalibrationFlags(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	prof := &ilp.SolveProfile{Label: "calib"}
	rep, table, err := AdaptCalibration(scenario.QuickScale(), prof)
	if err != nil {
		t.Fatal(err)
	}
	if len(table.Rows) == 0 || len(rep.Objects) == 0 || len(rep.Templates) == 0 {
		t.Fatal("empty calibration report")
	}

	// Every stream event lands on exactly one (template, object) record:
	// object serves and template serves both sum to the stream length.
	stream, _ := adaptStream(8, 8)
	objServes, tmplServes := 0, 0
	for _, o := range rep.Objects {
		objServes += o.Serves
	}
	for _, tc := range rep.Templates {
		tmplServes += tc.Serves
	}
	if objServes != len(stream) || tmplServes != len(stream) {
		t.Errorf("serve accounting: objects %d, templates %d, stream %d",
			objServes, tmplServes, len(stream))
	}

	// Templates are ranked worst-error first and the flagged set is the
	// strict prefix above the threshold.
	for i := 1; i < len(rep.Templates); i++ {
		if math.Abs(rep.Templates[i].Error()) > math.Abs(rep.Templates[i-1].Error())+1e-12 {
			t.Fatalf("templates not sorted by |error| at %d", i)
		}
	}
	flagged := rep.Flagged()
	if len(flagged) == 0 {
		t.Fatal("no templates flagged miscalibrated on the seeded stream")
	}
	for _, tc := range flagged {
		if math.Abs(tc.Error()) <= rep.Threshold {
			t.Errorf("flagged template %s via %s within threshold (err %.3f)",
				tc.Query, tc.Object, tc.Error())
		}
	}

	// The known miscalibrations under seed 42: the Q3.3 family's
	// correlation-map pricing and Q1.2's base-scan pricing. Their presence
	// is the determinism check — a nondeterministic report would flake.
	names := map[string]bool{}
	for _, tc := range flagged {
		names[tc.Query] = true
	}
	for _, want := range []string{"Q3.3.v1", "Q1.2"} {
		if !names[want] {
			t.Errorf("known-miscalibrated template %s not flagged (flagged set %v)", want, names)
		}
	}

	// The profile saw the controller's solves: progress sinks emit at
	// least a root and a final sample per selection/scheduling solve.
	if len(prof.Samples) == 0 {
		t.Fatal("solve profile captured no samples")
	}
	roots, finals := 0, 0
	for _, ps := range prof.Samples {
		switch ps.Phase {
		case "root":
			roots++
		case "final":
			finals++
		}
	}
	if roots == 0 || roots != finals {
		t.Errorf("profile shape: %d root vs %d final samples", roots, finals)
	}
}
