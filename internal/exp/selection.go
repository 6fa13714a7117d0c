package exp

import (
	"fmt"
	"math/rand"
	"time"

	"coradd/internal/feedback"
	"coradd/internal/ilp"
	"coradd/internal/par"
	"coradd/internal/scenario"
)

// SelectionPoint is one budget point of Figure 5.
type SelectionPoint struct {
	Budget        int64
	ILPExpected   float64 // expected total workload runtime, exact ILP
	GreedyExpect  float64 // same candidates, Greedy(m,k)
	ILPNodes      int
	ILPProven     bool
	GreedyChosen  int
	ILPChosenObjs int
}

// ILPVersusGreedy reproduces Figure 5: on the SSB workload, the exact ILP
// versus Greedy(m,k) over the identical candidate pool and cost model,
// plotting expected total runtime against the space budget.
func ILPVersusGreedy(env *scenario.Env) ([]SelectionPoint, *Table) {
	d := newCoradd(env, -1) // plain ILP, no feedback
	t := &Table{
		ID: "Figure 5", Title: "Optimal (ILP) versus Greedy(m,k), expected runtime vs budget",
		Header: []string{"budget_MB", "ILP_sec", "Greedy_sec", "greedy/ilp"},
	}
	budgets := env.Budgets()
	// Candidate pricing and dominance pruning are budget-independent, so
	// the problem is assembled once; each budget then solves a shallow copy
	// (solvers never mutate the shared candidate slice) concurrently.
	prob, _ := feedback.BuildProblem(d.Gen, d.Candidates(), baseTimes(d), 0)
	pts := make([]SelectionPoint, len(budgets))
	par.ForEach(len(budgets), 0, func(i int) {
		p := *prob
		p.Budget = budgets[i]
		exact := ilp.Solve(&p, env.Common.Solve)
		greedy := ilp.Greedy(&p, 2, 0)
		pts[i] = SelectionPoint{
			Budget: budgets[i], ILPExpected: exact.Objective, GreedyExpect: greedy.Objective,
			ILPNodes: exact.Nodes, ILPProven: exact.Proven,
			GreedyChosen: len(greedy.Chosen), ILPChosenObjs: len(exact.Chosen),
		}
	})
	for _, p := range pts {
		t.Rows = append(t.Rows, []string{
			mb(p.Budget), f3(p.ILPExpected), f3(p.GreedyExpect),
			f2(p.GreedyExpect / p.ILPExpected),
		})
	}
	t.Notes = append(t.Notes, "paper: ILP 20-40% better than Greedy(m,k) at most budgets; equal at very tight budgets")
	return pts, t
}

// ScalingPoint is one candidate-count point of Figure 6.
type ScalingPoint struct {
	Candidates int
	Seconds    float64
	Nodes      int
	Proven     bool
}

// ILPSolverScaling reproduces Figure 6: exact-solver wall time against the
// number of MV candidates, on synthetic selection instances shaped like
// post-pruning design problems (each candidate helps a few queries).
func ILPSolverScaling(sizes []int, numQueries int, seed int64) ([]ScalingPoint, *Table) {
	if len(sizes) == 0 {
		sizes = []int{1000, 2500, 5000, 10000, 20000}
	}
	if numQueries <= 0 {
		numQueries = 52
	}
	var pts []ScalingPoint
	t := &Table{
		ID: "Figure 6", Title: "ILP solver runtime vs number of MV candidates",
		Header: []string{"candidates", "seconds", "nodes", "proven"},
	}
	// Figure 6 measures wall time under a fixed 2M-node cap; the
	// CORADD_SOLVER_MAXNODES knob still overrides it when set.
	maxNodes, err := scenario.SolverMaxNodes()
	if err != nil {
		panic("exp: " + err.Error())
	}
	if maxNodes == 0 {
		maxNodes = 2_000_000
	}
	for _, n := range sizes {
		prob := syntheticProblem(n, numQueries, seed)
		start := time.Now()
		sol := ilp.Solve(prob, ilp.SolveOptions{MaxNodes: maxNodes})
		el := time.Since(start).Seconds()
		pts = append(pts, ScalingPoint{Candidates: n, Seconds: el, Nodes: sol.Nodes, Proven: sol.Proven})
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%d", n), f3(el), fmt.Sprintf("%d", sol.Nodes), fmt.Sprintf("%v", sol.Proven),
		})
	}
	t.Notes = append(t.Notes, "paper: optimal solutions within several minutes up to 20,000 candidates")
	return pts, t
}

// syntheticProblem builds a selection instance: every candidate serves a
// handful of random queries with runtimes drawn below the 10s base, with
// size loosely anti-correlated with speed (bigger candidates are faster),
// mirroring real pools.
func syntheticProblem(n, numQueries int, seed int64) *ilp.Problem {
	rng := rand.New(rand.NewSource(seed))
	base := make([]float64, numQueries)
	for q := range base {
		base[q] = 10
	}
	cands := make([]ilp.Candidate, n)
	for m := 0; m < n; m++ {
		times := make([]float64, numQueries)
		for q := range times {
			times[q] = ilp.Infeasible
		}
		served := 1 + rng.Intn(4)
		quality := rng.Float64() // 0 = slow/small, 1 = fast/big
		for s := 0; s < served; s++ {
			q := rng.Intn(numQueries)
			times[q] = 10 * (1 - quality) * (0.2 + 0.8*rng.Float64())
		}
		cands[m] = ilp.Candidate{
			Name:      fmt.Sprintf("c%d", m),
			Size:      int64((0.2 + quality + 0.3*rng.Float64()) * float64(100<<20)),
			Times:     times,
			FactGroup: 0,
		}
	}
	return &ilp.Problem{Cands: cands, Base: base, Budget: int64(n) << 20 * 25}
}

// RelaxPoint is one budget point of the §5.4 relaxation ablation.
type RelaxPoint struct {
	Budget       int64
	Exact        float64
	LPLowerBound float64
	Rounded      float64
	// BenefitLossPct is how much of the exact solution's benefit (runtime
	// saved versus no design) the rounding gives up.
	BenefitLossPct float64
}

// RelaxationError reproduces the §5.4 comparison with relaxation-based
// ILP designers: relax the paper's formulation, round, and measure the
// benefit lost versus the exact solution. (Papado et al. report a 32% loss
// in one experiment.)
func RelaxationError(env *scenario.Env, maxCands int) ([]RelaxPoint, *Table) {
	d := newCoradd(env, -1)
	base := baseTimes(d)
	noDesign := 0.0
	for qi, q := range env.W {
		noDesign += q.EffectiveWeight() * base[qi]
	}
	var pts []RelaxPoint
	t := &Table{
		ID: "Ablation §5.4", Title: "Exact ILP vs relaxed-and-rounded ILP",
		Header: []string{"budget_MB", "exact_sec", "lp_bound_sec", "rounded_sec", "benefit_loss_%"},
	}
	for _, budget := range env.Budgets() {
		prob, _ := feedback.BuildProblem(d.Gen, d.Candidates(), base, budget)
		prob = truncateProblem(prob, maxCands)
		exact := ilp.Solve(prob, env.Common.Solve)
		relax, err := ilp.SolveRelaxed(prob)
		if err != nil {
			continue
		}
		loss := 0.0
		if noDesign-exact.Objective > 1e-9 {
			loss = (relax.Rounded.Objective - exact.Objective) / (noDesign - exact.Objective) * 100
		}
		pts = append(pts, RelaxPoint{
			Budget: budget, Exact: exact.Objective,
			LPLowerBound: relax.LPObjective, Rounded: relax.Rounded.Objective,
			BenefitLossPct: loss,
		})
		t.Rows = append(t.Rows, []string{
			mb(budget), f3(exact.Objective), f3(relax.LPObjective),
			f3(relax.Rounded.Objective), f2(loss),
		})
	}
	t.Notes = append(t.Notes, "paper cites a 32% benefit loss from rounding in Papado et al.'s relaxation")
	return pts, t
}

// truncateProblem keeps the maxCands candidates with the best benefit
// density so the dense LP stays tractable.
func truncateProblem(p *ilp.Problem, maxCands int) *ilp.Problem {
	if maxCands <= 0 || len(p.Cands) <= maxCands {
		return p
	}
	type scored struct {
		idx int
		d   float64
	}
	var sc []scored
	for m := range p.Cands {
		benefit := 0.0
		for q := range p.Base {
			if t := p.Cands[m].Times[q]; t < p.Base[q] {
				benefit += p.Base[q] - t
			}
		}
		sz := float64(p.Cands[m].Size)
		if sz < 1 {
			sz = 1
		}
		sc = append(sc, scored{m, benefit / sz})
	}
	for i := 1; i < len(sc); i++ {
		for j := i; j > 0 && sc[j].d > sc[j-1].d; j-- {
			sc[j], sc[j-1] = sc[j-1], sc[j]
		}
	}
	out := &ilp.Problem{Base: p.Base, Weights: p.Weights, Budget: p.Budget}
	for i := 0; i < maxCands; i++ {
		out.Cands = append(out.Cands, p.Cands[sc[i].idx])
	}
	return out
}
