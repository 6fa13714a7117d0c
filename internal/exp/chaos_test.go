package exp

import (
	"bytes"
	"testing"

	"coradd/internal/scenario"
)

// TestChaosAblationShape is the robustness acceptance gate: under the
// injected fault schedule (build failures with retry/backoff, build
// delays, a mid-migration crash recovered from the journal) the adaptive
// run must still converge to the same final design as the fault-free
// run, with cumulative workload-seconds within the stated bound, no
// unrecovered panic and no wedged migration.
func TestChaosAblationShape(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	res, table, err := ChaosAblation(scenario.QuickScale())
	if err != nil {
		t.Fatal(err)
	}

	// The schedule must have actually bitten: failures retried, the
	// crash fired and was recovered through the journal.
	if res.Retries == 0 {
		t.Error("fault schedule injected zero build failures")
	}
	if res.Resumes == 0 {
		t.Error("the injected crash never fired (or was not recovered)")
	}
	if res.BuildsDone == 0 {
		t.Error("no migration builds completed under faults")
	}

	// Convergence: the faulted run lands on the same final design.
	if !sameDesignObjects(res.FreeFinal, res.ChaosFinal) {
		t.Errorf("chaos run converged to %s, fault-free to %s — different object sets",
			res.ChaosFinal.Name, res.FreeFinal.Name)
	}
	// No wedged migration: faults delay the migration but must not leave
	// it permanently in flight when the fault-free run finished its own.
	if !res.FreeMigrating && res.ChaosMigrating {
		t.Error("chaos migration still in flight at stream end — wedged")
	}

	// Degradation bound: the fault bill is real but bounded.
	if res.ChaosCum <= 0 || res.FreeCum <= 0 {
		t.Fatalf("non-positive cumulative seconds (chaos %.2f, free %.2f)", res.ChaosCum, res.FreeCum)
	}
	if res.ChaosCum > ChaosCumBound*res.FreeCum {
		t.Errorf("chaos cum %.2f exceeds %.2f× fault-free %.2f",
			res.ChaosCum, ChaosCumBound, res.FreeCum)
	}

	// Capped fault mass ⇒ no skips: every build eventually deployed.
	if res.SkippedBuilds != 0 {
		t.Errorf("%d builds skipped despite MaxFailsPerBuild < retry budget", res.SkippedBuilds)
	}

	var buf bytes.Buffer
	table.Print(&buf)
	if buf.Len() == 0 {
		t.Error("empty table")
	}
}
