package tenant

import (
	"strings"
	"testing"

	"coradd/internal/obs"
	"coradd/internal/workload"
)

// TestMetricsCounters: an instrumented coordinator reports the
// coradd_tenant_* series, and a nil registry is a free no-op (the other
// tests all run with one).
func TestMetricsCounters(t *testing.T) {
	reg := obs.NewRegistry()
	budget := contendedBudget(t)
	clk := &fakeClock{}
	co := New(Config{Budget: budget, Metrics: reg})
	tn, err := co.Add("A", testCommon(t, 5, 4000), workload.Config{}, clk.now)
	if err != nil {
		t.Fatal(err)
	}
	for r := 0; r < 8; r++ {
		tn.Observe(eqQ("a-eq", "a", 5))
		tn.Observe(twoColQ("ac"))
	}
	if _, err := co.Redesign(); err != nil {
		t.Fatal(err)
	}
	if _, err := co.Redesign(); err != nil {
		t.Fatal(err)
	}

	var buf strings.Builder
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	text := buf.String()
	for _, want := range []string{
		"coradd_tenant_redesigns_total 2",
		"coradd_tenant_candidates_total",
		"coradd_tenant_solver_nodes_total",
		"coradd_tenant_tenants 1",
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("exposition missing %q:\n%s", want, text)
		}
	}
	if strings.Contains(text, "coradd_tenant_candidates_total 0") {
		t.Fatal("candidates counter never moved")
	}
	if strings.Contains(text, "coradd_tenant_solver_nodes_total 0") {
		t.Fatal("solver nodes counter never moved")
	}
}
