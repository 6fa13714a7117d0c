package exp

import (
	"fmt"

	"coradd/internal/designer"
	"coradd/internal/par"
	"coradd/internal/scenario"
)

// ComparisonPoint is one budget point of Figures 9 and 11: real and
// model-expected totals per designer, plus the ILP's selection cost.
type ComparisonPoint struct {
	Budget int64
	// Real simulated totals (seconds).
	CORADD, Commercial, Naive float64
	// Model-expected totals.
	CORADDModel, CommercialModel float64
	// CORADDNodes is the branch-and-bound node total of CORADD's selection
	// (across feedback iterations); CORADDProven whether every solve in
	// the loop proved optimality within the node budget.
	CORADDNodes  int
	CORADDProven bool
}

// APBComparison reproduces Figure 9: on APB-1, total real runtime and each
// tool's own cost-model estimate, for CORADD and the Commercial baseline,
// across space budgets.
func APBComparison(env *scenario.Env) ([]ComparisonPoint, *Table, error) {
	pts, t, err := runComparison(env, false)
	if err != nil {
		return nil, nil, err
	}
	t.ID = "Figure 9"
	t.Title = "APB-1: CORADD vs commercial designer (real and model runtimes)"
	t.Notes = append(t.Notes,
		"paper: CORADD 1.5-3x faster at tight budgets, 5-6x at large; commercial model underestimates up to 6x")
	return pts, t, nil
}

// SSBComparison reproduces Figure 11: the augmented 52-query SSB workload,
// CORADD vs Naive vs Commercial real totals across budgets.
func SSBComparison(env *scenario.Env) ([]ComparisonPoint, *Table, error) {
	pts, t, err := runComparison(env, true)
	if err != nil {
		return nil, nil, err
	}
	t.ID = "Figure 11"
	t.Title = "Augmented SSB: CORADD vs Naive vs commercial designer"
	t.Notes = append(t.Notes,
		"paper: CORADD 1.5-2x better at tight budgets, 4-5x at large; Naive beats Commercial but trails CORADD")
	return pts, t, nil
}

// runComparison executes the designer bake-off on env: the designers run
// sequentially per budget (they memoize into shared per-designer state),
// then every produced design is measured concurrently on the worker pool —
// measurement only reads the designs and the evaluator's race-safe
// materialization cache. The table is assembled in budget order afterwards,
// so its bytes are identical to a fully sequential run.
func runComparison(env *scenario.Env, withNaive bool) ([]ComparisonPoint, *Table, error) {
	coradd := newCoradd(env, env.Scale.FB.MaxIters)
	commercial := designer.NewCommercial(env.Common, env.Scale.Cand)
	var naive *designer.Naive
	if withNaive {
		naive = designer.NewNaive(env.Common, env.Scale.Cand)
	}
	ev := env.Evaluator()

	header := []string{"budget_MB", "CORADD_sec", "CORADD_model", "Commercial_sec", "Commercial_model"}
	if withNaive {
		header = append(header, "Naive_sec")
	}
	header = append(header, "speedup")
	t := &Table{Header: header}

	budgets := env.Budgets()
	// Design phase: every designer at every budget.
	type budgetDesigns struct {
		dc, dm, dn *designer.Design
	}
	runs := make([]budgetDesigns, len(budgets))
	for i, budget := range budgets {
		dc, err := coradd.Design(budget)
		if err != nil {
			return nil, nil, err
		}
		dm, err := commercial.Design(budget)
		if err != nil {
			return nil, nil, err
		}
		runs[i] = budgetDesigns{dc: dc, dm: dm}
		if withNaive {
			dn, err := naive.Design(budget)
			if err != nil {
				return nil, nil, err
			}
			runs[i].dn = dn
		}
	}
	// Measurement phase: all (budget × designer) evaluations in parallel.
	type job struct {
		d   *designer.Design
		res **designer.RunResult
	}
	results := make([]struct{ rc, rm, rn *designer.RunResult }, len(budgets))
	var jobs []job
	for i := range runs {
		jobs = append(jobs,
			job{runs[i].dc, &results[i].rc},
			job{runs[i].dm, &results[i].rm})
		if withNaive {
			jobs = append(jobs, job{runs[i].dn, &results[i].rn})
		}
	}
	err := par.ForEachErr(len(jobs), func(j int) error {
		r, err := ev.Measure(jobs[j].d)
		if err != nil {
			return err
		}
		*jobs[j].res = r
		return nil
	})
	if err != nil {
		return nil, nil, err
	}

	var pts []ComparisonPoint
	unproven := 0
	for i, budget := range budgets {
		p := ComparisonPoint{
			Budget:          budget,
			CORADD:          results[i].rc.Total,
			CORADDModel:     runs[i].dc.TotalExpected(env.W),
			Commercial:      results[i].rm.Total,
			CommercialModel: runs[i].dm.TotalExpected(env.W),
			CORADDNodes:     runs[i].dc.SolverNodes,
			CORADDProven:    runs[i].dc.SolverProven,
		}
		// An unproven selection (node cap hit) is still the solver's best
		// incumbent, but the row must say so: a capped solve silently
		// printed as if optimal would overstate the comparison.
		coraddCell := f3(p.CORADD)
		if !p.CORADDProven {
			coraddCell += "*"
			unproven++
		}
		row := []string{mb(budget), coraddCell, f3(p.CORADDModel), f3(p.Commercial), f3(p.CommercialModel)}
		if withNaive {
			p.Naive = results[i].rn.Total
			row = append(row, f3(p.Naive))
		}
		speedup := 0.0
		if p.CORADD > 0 {
			speedup = p.Commercial / p.CORADD
		}
		row = append(row, f2(speedup))
		t.Rows = append(t.Rows, row)
		pts = append(pts, p)
	}
	if unproven > 0 {
		t.Notes = append(t.Notes, fmt.Sprintf(
			"* %d of %d CORADD selections unproven: best incumbent at the node/time budget, optimality not certified",
			unproven, len(budgets)))
	}
	return pts, t, nil
}

// MergeAblationPoint is one budget point of the §4.2 merging ablation.
type MergeAblationPoint struct {
	Budget          int64
	Interleaved     float64
	ConcatOnly      float64
	SlowdownPercent float64
}

// MergeAblation quantifies §4.2's claim that concatenation-only merging
// (prior work) produces designs up to 90% slower than interleaved merging,
// holding everything else in the pipeline fixed.
func MergeAblation(env *scenario.Env) ([]MergeAblationPoint, *Table) {
	inter := newCoradd(env, -1)
	concCfg := env.Scale.Cand
	concCfg.ConcatOnly = true
	conc := designer.NewCORADD(env.Common, concCfg, env.Scale.FB)

	var pts []MergeAblationPoint
	t := &Table{
		ID: "Ablation §4.2", Title: "Interleaved vs concatenation-only key merging (expected totals)",
		Header: []string{"budget_MB", "interleaved_sec", "concat_sec", "slowdown_%"},
	}
	for _, budget := range env.Budgets() {
		di, err := inter.Design(budget)
		if err != nil {
			continue
		}
		dcn, err := conc.Design(budget)
		if err != nil {
			continue
		}
		ti := di.TotalExpected(env.W)
		tc := dcn.TotalExpected(env.W)
		slow := 0.0
		if ti > 0 {
			slow = (tc/ti - 1) * 100
		}
		pts = append(pts, MergeAblationPoint{Budget: budget, Interleaved: ti, ConcatOnly: tc, SlowdownPercent: slow})
		t.Rows = append(t.Rows, []string{mb(budget), f3(ti), f3(tc), f2(slow)})
	}
	t.Notes = append(t.Notes, "paper: up to 90% slower designs with two-way (concatenation) merging")
	return pts, t
}
