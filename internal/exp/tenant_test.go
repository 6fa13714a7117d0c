package exp

import (
	"testing"

	"coradd/internal/scenario"
)

// TestTenantAblation pins the multi-tenant ablation's two claims in
// strict form: the Lagrangian dual allocation strictly beats the naive
// equal split by a measured margin on total workload-seconds, AND the
// dual ascent spends strictly fewer total branch-and-bound nodes than
// the monolithic pooled solve at the same global budget on the identical
// instances — plus the telemetry a report would quote.
func TestTenantAblation(t *testing.T) {
	res, table, err := TenantAblation(scenario.QuickScale())
	if err != nil {
		t.Fatal(err)
	}

	// Claim 1: allocation quality, measured.
	if res.DualSec <= 0 || res.EqSec <= 0 {
		t.Fatalf("degenerate measurement: dual %.4f, equal %.4f", res.DualSec, res.EqSec)
	}
	margin := (res.EqSec - res.DualSec) / res.EqSec
	if margin <= 0 {
		t.Fatalf("dual allocation does not beat equal split: dual %.4f vs equal %.4f",
			res.DualSec, res.EqSec)
	}
	if margin < 0.01 {
		t.Fatalf("dual's measured margin over equal split collapsed to %.2f%% (dual %.4f vs equal %.4f)",
			100*margin, res.DualSec, res.EqSec)
	}

	// Claim 2: solver effort — decomposition beats the coupled instance.
	if res.DualNodes <= 0 || res.MonoNodes <= 0 {
		t.Fatalf("degenerate node counts: dual %d, mono %d", res.DualNodes, res.MonoNodes)
	}
	if res.DualNodes >= res.MonoNodes {
		t.Fatalf("dual ascent did not save solver nodes: dual %d vs monolithic %d",
			res.DualNodes, res.MonoNodes)
	}

	// The dual's certificate and the mining telemetry.
	a := res.Alloc
	if a.Method != "dual" {
		t.Fatalf("ablation did not take the dual path: method %q", a.Method)
	}
	if a.Gap < 0 {
		t.Fatalf("negative duality gap %.4f", a.Gap)
	}
	if a.Proven && a.Objective < a.LowerBound-1e-6 {
		t.Fatalf("proven dual with objective %.4f below its lower bound %.4f", a.Objective, a.LowerBound)
	}
	if a.DualIters < 2 {
		t.Fatalf("dual ascent converged suspiciously fast on a contended budget: %d iterations", a.DualIters)
	}
	if a.TotalSize > a.Budget {
		t.Fatalf("allocation overruns the global budget: %d > %d", a.TotalSize, a.Budget)
	}
	live := 0
	for _, tr := range a.Tenants {
		if tr.Design == nil {
			continue
		}
		live++
		if tr.PoolSize == 0 {
			t.Fatalf("tenant %s mined nothing", tr.Name)
		}
		if tr.Size > a.Budget {
			t.Fatalf("tenant %s alone overruns the budget: %d", tr.Name, tr.Size)
		}
	}
	if live != len(res.Rows) || live < 4 {
		t.Fatalf("expected 4 live tenants with rows, got %d live / %d rows", live, len(res.Rows))
	}

	// The equal split cannot see skew: every tenant gets the same budget,
	// so the dual must have granted the tenants *different* shares for the
	// comparison to be about allocation at all.
	sizes := map[int64]bool{}
	for _, r := range res.Rows {
		sizes[r.DualSize] = true
	}
	if len(sizes) < 2 {
		t.Fatalf("dual granted every tenant the same share — the scenario is not skewed enough")
	}

	// Table shape.
	if table.ID != "Ablation tenant" || len(table.Rows) != len(res.Rows) {
		t.Fatalf("table shape: id %q, %d rows for %d tenants", table.ID, len(table.Rows), len(res.Rows))
	}
	if len(table.Header) != 7 {
		t.Fatalf("table header has %d columns, want 7", len(table.Header))
	}
	if len(table.Notes) < 4 {
		t.Fatalf("table carries %d notes, want the budget/margin/certificate/nodes lines", len(table.Notes))
	}
}
