package designer

import (
	"testing"

	"coradd/internal/apb"
	"coradd/internal/candgen"
	"coradd/internal/feedback"
	"coradd/internal/query"
	"coradd/internal/storage"
)

func multiEnv(t testing.TB) (map[string]Fact, query.Workload) {
	t.Helper()
	sales := apb.Generate(apb.Config{Rows: 30000, Seed: 17})
	plan := apb.GenerateBudget(apb.Config{Rows: 10000, Seed: 17})
	facts := map[string]Fact{
		"sales":    {Rel: sales, PKCols: apb.PKCols(sales.Schema), SampleSize: 1024, Seed: 18},
		"planvars": {Rel: plan, PKCols: apb.BudgetPKCols(plan.Schema), SampleSize: 1024, Seed: 19},
	}
	w := append(query.Workload{}, apb.Queries()[:8]...)
	w = append(w, apb.BudgetQueries()...)
	return facts, w
}

func multiCfg() (candgen.Config, feedback.Config) {
	cfg := candgen.DefaultConfig()
	cfg.Alphas = []float64{0}
	cfg.Restarts = 1
	return cfg, feedback.Config{MaxIters: -1}
}

func TestMultiDesignBothFacts(t *testing.T) {
	facts, w := multiEnv(t)
	cand, fb := multiCfg()
	m, err := NewMulti(facts, w, storage.DefaultDiskParams(), cand, fb)
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Order) != 2 {
		t.Fatalf("designed %d facts, want 2", len(m.Order))
	}
	totalHeap := facts["sales"].Rel.HeapBytes() + facts["planvars"].Rel.HeapBytes()
	budget := totalHeap * 3
	md, err := m.Design(budget)
	if err != nil {
		t.Fatal(err)
	}
	if md.Size > budget {
		t.Errorf("combined size %d over budget %d", md.Size, budget)
	}
	for fact, d := range md.PerFact {
		if len(d.Routing) != len(m.Workloads[fact]) {
			t.Errorf("%s: routing length %d != workload %d", fact, len(d.Routing), len(m.Workloads[fact]))
		}
	}
	if md.TotalExpected(m.Workloads) <= 0 {
		t.Error("non-positive expected total")
	}
}

// TestMultiPooledBeatsHeapSplit: without feedback, the shared-budget
// design's modeled total is no worse than splitting the budget across
// facts in proportion to their heaps and designing each fact alone, at
// every budget where the pooled solve proves. It must hold: both draw on
// the same per-fact pools, and the split's selections together fit the
// pooled instance.
func TestMultiPooledBeatsHeapSplit(t *testing.T) {
	facts, w := multiEnv(t)
	cand, fb := multiCfg()
	m, err := NewMulti(facts, w, storage.DefaultDiskParams(), cand, fb)
	if err != nil {
		t.Fatal(err)
	}
	var totalHeap int64
	for _, f := range facts {
		totalHeap += f.Rel.HeapBytes()
	}
	proven := 0
	for _, mult := range []float64{0.1, 0.25, 0.5, 1} {
		budget := int64(mult * float64(totalHeap))
		md, err := m.Design(budget)
		if err != nil {
			t.Fatal(err)
		}
		if md.Size > budget {
			t.Fatalf("%.2fx heap: pooled design uses %d > budget %d", mult, md.Size, budget)
		}
		if !md.PerFact[m.Order[0]].SolverProven {
			continue
		}
		proven++
		split := 0.0
		for _, name := range m.Order {
			share := int64(float64(budget) * float64(facts[name].Rel.HeapBytes()) / float64(totalHeap))
			d, err := m.Designers[name].Design(share)
			if err != nil {
				t.Fatal(err)
			}
			split += d.TotalExpected(m.Workloads[name])
		}
		pooled := md.TotalExpected(m.Workloads)
		if pooled > split*(1+1e-12) {
			t.Fatalf("%.2fx heap: pooled modeled total %.6f above the heap split's %.6f", mult, pooled, split)
		}
		t.Logf("%.2fx heap: pooled %.4f vs heap split %.4f (%.3fx)", mult, pooled, split, pooled/split)
	}
	if proven == 0 {
		t.Fatal("no pooled solve proved; the comparison tests nothing")
	}
}

func TestMultiRejectsUnknownFact(t *testing.T) {
	facts, w := multiEnv(t)
	cand, fb := multiCfg()
	w = append(w, &query.Query{Name: "bad", Fact: "nosuch"})
	if _, err := NewMulti(facts, w, storage.DefaultDiskParams(), cand, fb); err == nil {
		t.Error("unknown fact accepted")
	}
}

func TestSplitQuery(t *testing.T) {
	sales := apb.Generate(apb.Config{Rows: 1000, Seed: 20})
	plan := apb.GenerateBudget(apb.Config{Rows: 500, Seed: 20})
	facts := map[string]*storage.Relation{"sales": sales, "planvars": plan}
	// A two-fact query: actual vs budget dollars for one division-year.
	q := &query.Query{
		Name: "AvB", Fact: "both",
		Predicates: []query.Predicate{
			query.NewEq(apb.ColDivision, 1),
			query.NewEq(apb.ColYear, 1996),
			query.NewEq("store", 5), // sales-only attribute
		},
		Targets: []string{apb.ColPlanUnits}, // planvars-only attribute
		AggCol:  apb.ColDollars,             // sales-only aggregate
	}
	parts := SplitQuery(q, facts)
	if len(parts) != 2 {
		t.Fatalf("split into %d parts, want 2", len(parts))
	}
	var salesPart, planPart *query.Query
	for _, p := range parts {
		switch p.Fact {
		case "sales":
			salesPart = p
		case "planvars":
			planPart = p
		}
	}
	if salesPart == nil || planPart == nil {
		t.Fatal("missing a per-fact part")
	}
	if salesPart.Predicate("store") == nil {
		t.Error("sales part lost its store predicate")
	}
	if planPart.Predicate("store") != nil {
		t.Error("planvars part kept a sales-only predicate")
	}
	if salesPart.AggCol != apb.ColDollars || planPart.AggCol != "" {
		t.Error("aggregate column routed wrongly")
	}
	if len(planPart.Targets) != 1 || planPart.Targets[0] != apb.ColPlanUnits {
		t.Error("planvars part lost its target")
	}
}
