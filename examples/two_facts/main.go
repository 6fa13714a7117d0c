// two_facts shows CORADD's multi-fact handling (§4.1.2, §7.1): APB-1's
// sales and planvars (budget) fact tables designed together. A two-fact
// actual-versus-plan query is split into independent per-fact queries, and
// one selection over both facts' candidates spends the shared space budget
// where it buys the most, each fact with its own MVs and re-clustering.
package main

import (
	"flag"
	"fmt"

	"coradd"
	"coradd/internal/apb"
	"coradd/internal/designer"
	"coradd/internal/storage"
)

func main() {
	rows := flag.Int("rows", 50_000, "sales fact rows (planvars gets a third)")
	flag.Parse()

	sales := coradd.GenerateAPB(coradd.APBConfig{Rows: *rows, Seed: 7})
	plan := apb.GenerateBudget(apb.Config{Rows: *rows / 3, Seed: 7})
	facts := map[string]coradd.MultiFact{
		"sales":    {Rel: sales, PKCols: apb.PKCols(sales.Schema), Seed: 8},
		"planvars": {Rel: plan, PKCols: apb.BudgetPKCols(plan.Schema), Seed: 9},
	}

	// A two-fact query: actual vs budgeted dollars for division 1 in 1996.
	twoFact := &coradd.Query{
		Name: "actual-vs-plan", Fact: "both",
		Predicates: []coradd.Predicate{
			coradd.Eq(apb.ColDivision, 1),
			coradd.Eq(apb.ColYear, 1996),
		},
		AggCol: apb.ColDollars,
	}
	parts := designer.SplitQuery(twoFact, map[string]*storage.Relation{"sales": sales, "planvars": plan})
	fmt.Printf("two-fact query %q split into %d per-fact queries:\n", twoFact.Name, len(parts))
	for _, p := range parts {
		fmt.Printf("  %s\n", p)
	}

	w := append(coradd.Workload{}, apb.Queries()[:10]...)
	w = append(w, apb.BudgetQueries()...)
	w = append(w, parts...)

	sys, err := coradd.NewMultiSystem(facts, w, coradd.SystemConfig{FeedbackIters: 1})
	must(err)

	totalHeap := sales.HeapBytes() + plan.HeapBytes()
	budget := totalHeap * 3
	md, err := sys.Design(budget)
	must(err)

	fmt.Printf("\nbudget %.1f MB shared by the facts (total used %.1f MB):\n",
		float64(budget)/(1<<20), float64(md.Size)/(1<<20))
	for _, fact := range sys.Order {
		d := md.PerFact[fact]
		fmt.Printf("  %-9s %d objects, %.1f MB, expected %.3fs over %d queries\n",
			fact+":", len(d.Chosen), float64(d.Size)/(1<<20),
			d.TotalExpected(sys.Workloads[fact]), len(sys.Workloads[fact]))
		for _, mv := range d.Chosen {
			rel := facts[fact].Rel
			fmt.Printf("      %-26s key=(%s)\n", mv.Name, rel.Schema.ColNames(mv.ClusterKey))
		}
	}
	fmt.Printf("\ncombined expected total: %.3fs\n", md.TotalExpected(sys.Workloads))
}

func must(err error) {
	if err != nil {
		panic(err)
	}
}
