package exp

import (
	"fmt"

	"coradd/internal/costmodel"
	"coradd/internal/designer"
	"coradd/internal/ilp"
	"coradd/internal/query"
	"coradd/internal/scenario"
	"coradd/internal/scenario/apbenv"
	"coradd/internal/ssb"
	"coradd/internal/tenant"
	"coradd/internal/workload"
)

// TenantBudgetMult is the ablation's global space budget as a multiple of
// the SSB fact heap. It is deliberately contended: the tenants' pooled
// appetite exceeds it, so how the budget is split across tenants is what
// the experiment measures.
const TenantBudgetMult = 0.5

// TenantRow is one tenant's slice of the ablation outcome.
type TenantRow struct {
	Name      string
	Templates int
	// PoolSize is the tenant's mined candidate pool.
	PoolSize int
	// DualSize/EqSize are the budget shares granted by the Lagrangian
	// allocation and by the naive equal split.
	DualSize, EqSize int64
	// DualSec/EqSec are measured rate-weighted workload-seconds of the
	// tenant's snapshot under each contender's design.
	DualSec, EqSec float64
}

// TenantAblationResult is the tenant ablation's typed outcome.
type TenantAblationResult struct {
	Rows []TenantRow
	// Alloc is the coordinator's allocation (dual certificate included).
	Alloc *tenant.Allocation
	// DualSec/EqSec are total measured workload-seconds under the dual
	// allocation and the naive equal split of the same global budget.
	DualSec, EqSec float64
	// DualNodes/EqNodes/MonoNodes compare solver effort: branch-and-bound
	// nodes of the dual ascent (all subproblem solves summed), of the
	// equal-split per-tenant solves, and of the monolithic pooled exact
	// solve at the same global budget on the identical instances.
	DualNodes, EqNodes, MonoNodes int
	// MonoObjective/MonoProven describe the monolithic reference solve.
	MonoObjective float64
	MonoProven    bool
	// Budget echoes the global budget.
	Budget int64
}

// tenantClock is the injected deterministic clock the tenant streams
// replay on: one simulated second per observation.
type tenantClock struct{ t float64 }

func (c *tenantClock) now() float64 { c.t++; return c.t }

// tenantSpec is one synthetic tenant: a slice of a benchmark workload
// observed with a skewed repetition count.
type tenantSpec struct {
	name   string
	env    *scenario.Env
	qs     []*query.Query
	rounds int
}

// tenantStreams builds the ablation's skewed tenant mix over two
// datasets: three SSB tenants with disjoint slices of the augmented
// 52-template workload and very different traffic rates, plus one APB
// tenant — the many-schemas case the coordinator must price
// independently. The wide template sets are deliberate: they mine rich
// candidate pools, which is what makes the monolithic pooled instance a
// genuine combinatorial problem.
func tenantStreams(ssbEnv, apbEnv *scenario.Env) []tenantSpec {
	sq := ssb.AugmentedQueries()
	aq := apbEnv.W
	return []tenantSpec{
		{name: "ssb-hot", env: ssbEnv, qs: sq[0:20], rounds: 12},
		{name: "ssb-drill", env: ssbEnv, qs: sq[20:36], rounds: 6},
		{name: "ssb-light", env: ssbEnv, qs: sq[36:46], rounds: 2},
		{name: "apb", env: apbEnv, qs: aq[0:12], rounds: 4},
	}
}

// measureTenant charges every snapshot template its measured simulated
// seconds on d, weighted by the template's decayed rate — the measured
// analogue of the selection objective.
func measureTenant(env *scenario.Env, model *costmodel.Aware, d *designer.Design, w query.Workload) (float64, error) {
	total := 0.0
	for _, q := range w {
		sec, _, err := designer.MeasureTemplateTraced(env.St, env.Common.Disk, env.Evaluator().Cache, model, d, q)
		if err != nil {
			return 0, err
		}
		total += q.Weight * sec
	}
	return total, nil
}

// tenantDesignFrom rebuilds a routed design from an alternative selection
// over a tenant's priced instance (the candidates travel on Candidate.Ref).
func tenantDesignFrom(name string, env *scenario.Env, model *costmodel.Aware, prob *ilp.Problem,
	chosen []int, w query.Workload, budget int64) *designer.Design {

	ds := make([]*costmodel.MVDesign, len(chosen))
	for j, ci := range chosen {
		ds[j] = prob.Cands[ci].Ref.(*costmodel.MVDesign)
	}
	d := &designer.Design{
		Name: name, Style: designer.StyleCORADD, Budget: budget,
		Base: env.Common.BaseDesign(), Chosen: ds, Size: prob.SizeOf(chosen),
	}
	return designer.Reroute(d, model, w)
}

// TenantAblation measures the multi-tenant coordinator's two claims on a
// skewed 4-tenant SSB/APB mix under one contended global budget:
//
//   - Allocation quality: the Lagrangian dual's budget split is compared
//     against the naive equal split (every tenant gets B/N, solved
//     exactly on the identical mined instances) by measured
//     rate-weighted workload-seconds — the dual moves budget to the
//     tenants whose workloads buy the most with it.
//
//   - Solver effort: the dual's summed subproblem nodes are compared
//     against the monolithic pooled exact solve of the same instances at
//     the same global budget — decomposition replaces one coupled
//     branch-and-bound with N small warm-started ones.
//
// Everything downstream of the generated datasets is deterministic: the
// streams replay on an injected clock and the coordinator is forced down
// the dual path (MonolithicLimit -1).
func TenantAblation(s scenario.Scale) (*TenantAblationResult, *Table, error) {
	ssbEnv := scenario.SSB(s, false)
	apbEnv := apbenv.New(s)
	specs := tenantStreams(ssbEnv, apbEnv)
	budget := int64(TenantBudgetMult * float64(ssbEnv.Rel.HeapBytes()))

	co := tenant.New(tenant.Config{
		Budget:          budget,
		MonolithicLimit: -1, // always decompose: the ablation measures the dual itself
		// Deep mining: low support threshold, wide set cap, three
		// clusterings per mined group — the pools are rich enough that the
		// monolithic pooled instance is genuinely combinatorial.
		MinShare:   0.02,
		MaxSetSize: 4,
		MaxSets:    64,
		MinedT:     3,
		DualIters:  10,
		Solve:      ssbEnv.Common.Solve,
	})
	clk := &tenantClock{}
	for _, sp := range specs {
		tn, err := co.Add(sp.name, sp.env.Common, workload.Config{HalfLife: 1e6}, clk.now)
		if err != nil {
			return nil, nil, err
		}
		for r := 0; r < sp.rounds; r++ {
			for _, q := range sp.qs {
				tn.Observe(q)
			}
		}
	}

	alloc, err := co.Redesign()
	if err != nil {
		return nil, nil, err
	}

	res := &TenantAblationResult{Alloc: alloc, Budget: budget, DualNodes: alloc.Nodes}
	models := map[*scenario.Env]*costmodel.Aware{
		ssbEnv: costmodel.NewAware(ssbEnv.St, ssbEnv.Common.Disk),
		apbEnv: costmodel.NewAware(apbEnv.St, apbEnv.Common.Disk),
	}

	// Gather the live per-tenant instances for the reference solves.
	var probs []*ilp.Problem
	var liveIdx []int
	for i, tr := range alloc.Tenants {
		if tr.Design != nil {
			probs = append(probs, alloc.Problems[i])
			liveIdx = append(liveIdx, i)
		}
	}
	if len(probs) == 0 {
		return nil, nil, fmt.Errorf("tenant ablation: no live tenants")
	}

	// Contender: naive equal split — each tenant solved exactly on its own
	// instance with budget B/N.
	eqBudget := budget / int64(len(probs))
	for li, i := range liveIdx {
		sp := specs[i]
		tr := alloc.Tenants[i]
		model := models[sp.env]

		eqProb := *probs[li]
		eqProb.Budget = eqBudget
		eqSol := ilp.Solve(&eqProb, sp.env.Common.Solve)
		res.EqNodes += eqSol.Nodes
		eqDesign := tenantDesignFrom("tenant-eq/"+sp.name, sp.env, model, &eqProb, eqSol.Chosen, tr.Workload, eqBudget)

		dualSec, err := measureTenant(sp.env, model, tr.Design, tr.Workload)
		if err != nil {
			return nil, nil, err
		}
		eqSec, err := measureTenant(sp.env, model, eqDesign, tr.Workload)
		if err != nil {
			return nil, nil, err
		}
		res.DualSec += dualSec
		res.EqSec += eqSec
		res.Rows = append(res.Rows, TenantRow{
			Name:      sp.name,
			Templates: len(tr.Workload),
			PoolSize:  tr.PoolSize,
			DualSize:  tr.Size,
			EqSize:    eqDesign.Size,
			DualSec:   dualSec,
			EqSec:     eqSec,
		})
	}

	// Reference: the monolithic pooled exact solve at the same global
	// budget on the identical instances — the node-count contender.
	pl := ilp.Pool(probs, budget)
	monoSol := ilp.Solve(pl.P, ssbEnv.Common.Solve)
	res.MonoNodes = monoSol.Nodes
	res.MonoObjective = monoSol.Objective
	res.MonoProven = monoSol.Proven

	t := &Table{
		ID:     "Ablation tenant",
		Title:  "Multi-tenant shared budget: Lagrangian dual allocation vs naive equal split (measured workload-seconds)",
		Header: []string{"tenant", "templates", "pool", "dual_MB", "equal_MB", "dual_sec", "equal_sec"},
	}
	for _, r := range res.Rows {
		t.Rows = append(t.Rows, []string{
			r.Name, fmt.Sprintf("%d", r.Templates), fmt.Sprintf("%d", r.PoolSize),
			mb(r.DualSize), mb(r.EqSize), f3(r.DualSec), f3(r.EqSec),
		})
	}
	t.Notes = append(t.Notes,
		fmt.Sprintf("global budget %s MB shared by %d tenants; equal split gives each %s MB",
			mb(budget), len(probs), mb(eqBudget)),
		fmt.Sprintf("measured workload-seconds: dual %.3f vs equal-split %.3f (%.1f%% better)",
			res.DualSec, res.EqSec, 100*(res.EqSec-res.DualSec)/res.EqSec),
		fmt.Sprintf("dual certificate: λ=%.3g, %d iterations, %d subproblem solves, objective %.3f ≥ bound %.3f (gap %.3f)",
			alloc.Lambda, alloc.DualIters, alloc.SubSolves, alloc.Objective, alloc.LowerBound, alloc.Gap),
		fmt.Sprintf("solver effort: dual %d nodes vs equal-split %d vs monolithic pooled %d (mono objective %.3f, proven %v)",
			res.DualNodes, res.EqNodes, res.MonoNodes, res.MonoObjective, res.MonoProven))
	return res, t, nil
}
