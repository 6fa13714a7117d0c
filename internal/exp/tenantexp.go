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
// the experiment measures. It is also large enough that the equal split's
// B/N buys every tenant a structure, so the margin compares two
// allocations rather than one against bare base designs, and small
// enough that the pooled solve proves at quick scale.
const TenantBudgetMult = 1

// TenantRow is one tenant's slice of the ablation outcome.
type TenantRow struct {
	Name      string
	Templates int
	// PoolSize is the tenant's §4 candidate pool.
	PoolSize int
	// SharedSize/EqSize are the budget shares granted by the pooled
	// shared-budget solve and by the naive equal split.
	SharedSize, EqSize int64
	// SharedSec/EqSec are measured rate-weighted workload-seconds of the
	// tenant's snapshot under each contender's design.
	SharedSec, EqSec float64
}

// TenantAblationResult is the tenant ablation's typed outcome.
type TenantAblationResult struct {
	Rows []TenantRow
	// Alloc is the coordinator's allocation (pooled solve telemetry
	// included).
	Alloc *tenant.Allocation
	// SharedSec/EqSec are total measured workload-seconds under the
	// shared allocation and the naive equal split of the same global
	// budget.
	SharedSec, EqSec float64
	// EqNodes sums the branch-and-bound nodes of the equal-split
	// per-tenant solves, beside the pooled solve's Alloc.Nodes.
	EqNodes int
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
// independently. The wide template sets are deliberate: they generate
// rich candidate pools, which is what makes the pooled instance a genuine
// combinatorial problem.
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

// TenantAblation measures the multi-tenant coordinator on a skewed
// 4-tenant SSB/APB mix under one contended global budget: the pooled
// exact solve's budget split is compared against the naive equal split
// (every tenant gets B/N, solved exactly on the identical instances) by
// measured rate-weighted workload-seconds — the shared solve moves budget
// to the tenants whose workloads buy the most with it.
//
// Everything downstream of the generated datasets is deterministic: the
// streams replay on an injected clock.
func TenantAblation(s scenario.Scale) (*TenantAblationResult, *Table, error) {
	ssbEnv := scenario.SSB(s, false)
	apbEnv := apbenv.New(s)
	specs := tenantStreams(ssbEnv, apbEnv)
	budget := int64(TenantBudgetMult * float64(ssbEnv.Rel.HeapBytes()))

	co := tenant.New(tenant.Config{Budget: budget, Solve: ssbEnv.Common.Solve})
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

	res := &TenantAblationResult{Alloc: alloc, Budget: budget}
	models := map[*scenario.Env]*costmodel.Aware{
		ssbEnv: costmodel.NewAware(ssbEnv.St, ssbEnv.Common.Disk),
		apbEnv: costmodel.NewAware(apbEnv.St, apbEnv.Common.Disk),
	}

	// Gather the live per-tenant instances for the equal-split solves.
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

		sharedSec, err := measureTenant(sp.env, model, tr.Design, tr.Workload)
		if err != nil {
			return nil, nil, err
		}
		eqSec, err := measureTenant(sp.env, model, eqDesign, tr.Workload)
		if err != nil {
			return nil, nil, err
		}
		res.SharedSec += sharedSec
		res.EqSec += eqSec
		res.Rows = append(res.Rows, TenantRow{
			Name:       sp.name,
			Templates:  len(tr.Workload),
			PoolSize:   tr.PoolSize,
			SharedSize: tr.Size,
			EqSize:     eqDesign.Size,
			SharedSec:  sharedSec,
			EqSec:      eqSec,
		})
	}

	t := &Table{
		ID:     "Ablation tenant",
		Title:  "Multi-tenant shared budget: pooled exact allocation vs naive equal split (measured workload-seconds)",
		Header: []string{"tenant", "templates", "pool", "shared_MB", "equal_MB", "shared_sec", "equal_sec"},
	}
	for _, r := range res.Rows {
		t.Rows = append(t.Rows, []string{
			r.Name, fmt.Sprintf("%d", r.Templates), fmt.Sprintf("%d", r.PoolSize),
			mb(r.SharedSize), mb(r.EqSize), f3(r.SharedSec), f3(r.EqSec),
		})
	}
	t.Notes = append(t.Notes,
		fmt.Sprintf("global budget %s MB shared by %d tenants; equal split gives each %s MB",
			mb(budget), len(probs), mb(eqBudget)),
		fmt.Sprintf("measured workload-seconds: shared %.3f vs equal-split %.3f (%.1f%% better)",
			res.SharedSec, res.EqSec, 100*(res.EqSec-res.SharedSec)/res.EqSec),
		fmt.Sprintf("pooled solve: modeled objective %.3f, %d nodes, proven %v (equal-split solves %d nodes)",
			alloc.Objective, alloc.Nodes, alloc.Proven, res.EqNodes))
	return res, t, nil
}
