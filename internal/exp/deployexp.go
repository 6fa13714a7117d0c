package exp

import (
	"fmt"

	"coradd/internal/deploy"
	"coradd/internal/designer"
	"coradd/internal/scenario"
	"coradd/internal/ssb"
)

// DeployStep is one build slot of the deploy ablation: the scheduled
// order's step against the same slot of the naive (size-ascending) order,
// both priced with measured workload rates.
type DeployStep struct {
	// Object/Source/BuildSeconds describe the scheduled order's step.
	Object, Source string
	BuildSeconds   float64
	// SchedRate is the measured workload cost per round while this build
	// runs; SchedCum the measured cumulative cost through it.
	SchedRate, SchedCum float64
	// NaiveObject/NaiveBuildSeconds/NaiveRate/NaiveCum are the same slot
	// of the size-ascending order.
	NaiveObject       string
	NaiveBuildSeconds float64
	NaiveRate         float64
	NaiveCum          float64
}

// DeployResult is the deploy ablation's typed outcome.
type DeployResult struct {
	// Plan is the scheduled phase-1 → phase-2 migration.
	Plan *designer.MigrationPlan
	// Steps align the scheduled and naive orders slot by slot.
	Steps []DeployStep
	// Measured cumulative workload cost over the deployment window for
	// the scheduled, size-ascending and arbitrary (selection-order)
	// builds, in workload-seconds.
	SchedCum, NaiveCum, ArbCum float64
	// Model-expected cumulative costs of the same three orders.
	SchedCumModel, NaiveCumModel, ArbCumModel float64
	// StartRate/FinalRate are the measured workload rates before and
	// after the migration.
	StartRate, FinalRate float64
}

// DeployBudgetMult is the ablation's space budget as a heap multiple.
const DeployBudgetMult = 2.0

// DeployAblation reproduces the evolving-workload deployment story: the
// 13-query SSB workload is designed for, the workload then evolves into
// the paper's Figure-11-style augmented 52-query workload, the new
// workload is designed with the same pipeline, and the phase-1 → phase-2
// migration is scheduled with internal/deploy. The scheduled order is
// compared against naive orders (size-ascending and the selection's
// arbitrary order) on *measured* intermediate rates: every deployed
// prefix is materialized through the evaluator's object cache and the
// full workload executed on it, so the cumulative-cost curves are real
// simulated workload-seconds, not model estimates.
func DeployAblation(s scenario.Scale) (*DeployResult, *Table, error) {
	env := scenario.SSB(s, true) // phase 2: the augmented 52-query workload
	budget := int64(DeployBudgetMult * float64(env.Rel.HeapBytes()))

	// Phase 1: the base SSB workload over the same fact table and stats.
	c1 := env.Common
	c1.W = ssb.Queries()
	des1 := designer.NewCORADD(c1, env.Scale.Cand, env.Scale.FB)
	d1, err := des1.Design(budget)
	if err != nil {
		return nil, nil, err
	}

	// Phase 2: the augmented workload, same pipeline.
	des2 := newCoradd(env, env.Scale.FB.MaxIters)
	d2, err := des2.Design(budget)
	if err != nil {
		return nil, nil, err
	}

	plan, err := designer.PlanMigration(env.St, env.Common.Disk, env.W, des2.Model, d1, d2,
		deploy.Options{MaxNodes: env.Common.Solve.MaxNodes})
	if err != nil {
		return nil, nil, err
	}
	n := len(plan.Builds)

	// Comparator orders: size-ascending (ties by selection order) and the
	// selection's arbitrary order.
	sizeAsc := plan.SizeAscendingOrder()
	arb := make([]int, n)
	for i := range arb {
		arb[i] = i
	}

	// Measured cumulative curve of one schedule: the workload rate of
	// every deployed prefix is a real evaluator run; build times come from
	// the schedule's (prefix-dependent) accounting. All orders share the
	// same prefix-0 (pre-migration) state, measured once.
	ev := env.Evaluator()
	start, err := ev.Measure(plan.PrefixDesign(des2.Model, env.W, nil))
	if err != nil {
		return nil, nil, err
	}
	startRate := start.Total
	measure := func(es *deploy.Schedule) (rates, cums []float64, err error) {
		rates = make([]float64, n)
		cums = make([]float64, n)
		cum := 0.0
		for k := 0; k < n; k++ {
			rate := startRate
			if k > 0 {
				r, err := ev.Measure(plan.PrefixDesign(des2.Model, env.W, es.Order[:k]))
				if err != nil {
					return nil, nil, err
				}
				rate = r.Total
			}
			cum += es.Builds[k] * rate
			rates[k], cums[k] = rate, cum
		}
		return rates, cums, nil
	}

	naiveEval, err := deploy.Evaluate(plan.Problem, sizeAsc)
	if err != nil {
		return nil, nil, err
	}
	arbEval, err := deploy.Evaluate(plan.Problem, arb)
	if err != nil {
		return nil, nil, err
	}
	schedRates, schedCums, err := measure(plan.Schedule)
	if err != nil {
		return nil, nil, err
	}
	naiveRates, naiveCums, err := measure(naiveEval)
	if err != nil {
		return nil, nil, err
	}
	_, arbCums, err := measure(arbEval)
	if err != nil {
		return nil, nil, err
	}
	last := func(xs []float64) float64 {
		if len(xs) == 0 {
			return 0
		}
		return xs[len(xs)-1]
	}

	res := &DeployResult{
		Plan:          plan,
		SchedCum:      last(schedCums),
		NaiveCum:      last(naiveCums),
		ArbCum:        last(arbCums),
		SchedCumModel: plan.CumSeconds,
		NaiveCumModel: naiveEval.Cum,
		ArbCumModel:   arbEval.Cum,
		StartRate:     startRate,
	}
	fin, err := ev.Measure(plan.PrefixDesign(des2.Model, env.W, arb))
	if err != nil {
		return nil, nil, err
	}
	res.FinalRate = fin.Total

	t := &Table{
		ID:    "Ablation deploy",
		Title: "Deployment scheduling, SSB base → augmented migration (measured rates)",
		Header: []string{"step", "object", "source", "build_s",
			"rate_sched", "cum_sched", "naive_object", "cum_naive"},
	}
	for k, step := range plan.Steps {
		st := DeployStep{
			Object:            step.Object.Name,
			Source:            step.Source,
			BuildSeconds:      step.BuildSeconds,
			SchedRate:         schedRates[k],
			SchedCum:          schedCums[k],
			NaiveObject:       plan.Builds[sizeAsc[k]].Name,
			NaiveBuildSeconds: naiveEval.Builds[k],
			NaiveRate:         naiveRates[k],
			NaiveCum:          naiveCums[k],
		}
		res.Steps = append(res.Steps, st)
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%d", k+1), st.Object, st.Source, f2(st.BuildSeconds),
			f3(st.SchedRate), f2(st.SchedCum), st.NaiveObject, f2(st.NaiveCum),
		})
	}
	t.Notes = append(t.Notes,
		fmt.Sprintf("migration: %d kept, %d dropped, %d builds; solver nodes %d proven %v",
			len(plan.Kept), len(plan.Dropped), n, plan.Nodes, plan.Proven),
		fmt.Sprintf("cumulative workload-seconds during deployment: scheduled %.2f vs size-ascending %.2f vs selection-order %.2f",
			res.SchedCum, res.NaiveCum, res.ArbCum),
		fmt.Sprintf("model-expected cums: scheduled %.2f, size-ascending %.2f, selection-order %.2f",
			res.SchedCumModel, res.NaiveCumModel, res.ArbCumModel),
		fmt.Sprintf("measured workload rate: %.3f s before migration, %.3f s after", res.StartRate, res.FinalRate),
		"companion paper: Optimizing Index Deployment Order for Evolving OLAP (Kimura et al.)")
	return res, t, nil
}
