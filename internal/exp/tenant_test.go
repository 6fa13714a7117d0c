package exp

import (
	"testing"

	"coradd/internal/scenario"
)

// TestTenantAblation pins the multi-tenant ablation: the pooled solve
// proves its optimum, the equal split's B/N buys structures, the shared
// allocation beats that split by a measured margin on total
// workload-seconds, and the modeled and
// measured workload-seconds are no worse than the 12.832 and 13.677 that
// the earlier mined pools and Lagrangian dual reached on this mix — plus
// the telemetry a report would quote.
func TestTenantAblation(t *testing.T) {
	res, table, err := TenantAblation(scenario.QuickScale())
	if err != nil {
		t.Fatal(err)
	}
	a := res.Alloc
	if !a.Proven {
		t.Fatalf("pooled solve not proven after %d nodes", a.Nodes)
	}

	// Allocation quality, measured.
	if res.SharedSec <= 0 || res.EqSec <= 0 {
		t.Fatalf("degenerate measurement: shared %.4f, equal %.4f", res.SharedSec, res.EqSec)
	}
	if margin := (res.EqSec - res.SharedSec) / res.EqSec; margin < 0.01 {
		t.Fatalf("shared allocation's measured margin over equal split is %.2f%% (shared %.4f vs equal %.4f)",
			100*margin, res.SharedSec, res.EqSec)
	}
	if a.Objective > 12.832 || res.SharedSec > 13.677 {
		t.Fatalf("modeled %.4f / measured %.4f workload-seconds, above the dual's 12.832 / 13.677",
			a.Objective, res.SharedSec)
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
			t.Fatalf("tenant %s generated no candidates", tr.Name)
		}
	}
	if live != len(res.Rows) || live < 4 {
		t.Fatalf("expected 4 live tenants with rows, got %d live / %d rows", live, len(res.Rows))
	}

	// The equal split cannot see skew: every tenant gets the same budget,
	// so the shared solve must have granted the tenants *different* shares
	// for the comparison to be about allocation at all.
	sizes := map[int64]bool{}
	for _, r := range res.Rows {
		sizes[r.SharedSize] = true
	}
	if len(sizes) < 2 {
		t.Fatalf("shared solve granted every tenant the same share — the scenario is not skewed enough")
	}

	// The equal split must be a real contender: B/N buys at least two
	// tenants a structure, so the margin measures allocation, not an
	// empty design.
	bought := 0
	for _, r := range res.Rows {
		if r.EqSize > 0 {
			bought++
		}
	}
	if bought < 2 {
		t.Fatalf("the equal split bought a structure for %d tenants, want at least 2", bought)
	}

	// Table shape.
	if table.ID != "Ablation tenant" || len(table.Rows) != len(res.Rows) {
		t.Fatalf("table shape: id %q, %d rows for %d tenants", table.ID, len(table.Rows), len(res.Rows))
	}
	if len(table.Header) != 7 || table.Header[3] != "shared_MB" || table.Header[5] != "shared_sec" {
		t.Fatalf("table header %v", table.Header)
	}
	if len(table.Notes) != 3 {
		t.Fatalf("table carries %d notes, want the budget/margin/solve lines", len(table.Notes))
	}
}
