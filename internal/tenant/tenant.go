// Package tenant is the multi-tenant design coordinator: N tenant
// workloads — each with its own fact table, online workload monitor and
// cost model — share one global space budget. Each tenant's redesign runs
// the one redesign pipeline (designer.CORADD) over its monitor's current
// snapshot: the §4 candidate generation at candgen.DefaultConfig, then
// the priced selection instance. The coordinator adds only the shared
// budget: the per-tenant instances are pooled into one block-diagonal
// instance whose only coupling is the budget row (ilp.Pool) and solved
// exactly by the one branch-and-bound (ilp.Solve), warm-started from
// every tenant's last design; Pooled.Split hands each tenant its share.
// With one tenant a redesign is exactly the designer's plain-ILP design.
//
// Pools are regenerated every round, never accumulated, so a redesign
// depends only on the monitors' state. Everything is deterministic for a
// fixed observation history, injected clocks and any worker count — the
// property the tests pin.
package tenant

import (
	"fmt"

	"coradd/internal/candgen"
	"coradd/internal/costmodel"
	"coradd/internal/designer"
	"coradd/internal/ilp"
	"coradd/internal/obs"
	"coradd/internal/par"
	"coradd/internal/query"
	"coradd/internal/workload"
)

// Config tunes a Coordinator.
type Config struct {
	// Budget is the global space budget in bytes, shared by all tenants.
	Budget int64
	// Workers is the worker count for the cross-tenant fan-out of
	// candidate generation and pricing; ≤ 0 means one per CPU. Results
	// are identical at any setting.
	Workers int
	// Solve tunes the pooled selection solve.
	Solve ilp.SolveOptions
	// Metrics, when non-nil, receives the coradd_tenant_* series.
	Metrics *obs.Registry
}

// Tenant is one registered workload: a monitor observing its stream, the
// model every redesign of it prices with, and its current design objects.
type Tenant struct {
	// Name labels the tenant in allocations and metrics.
	Name string
	// Mon is the tenant's workload monitor; feed it with Observe (or
	// directly) and the next Redesign solves for its snapshot.
	Mon *workload.Monitor

	com   designer.Common
	model *costmodel.Aware
	// lastChosen are the objects the last redesign chose: the warm start
	// for the next one.
	lastChosen []*costmodel.MVDesign
}

// Observe feeds one executed query instance to the tenant's monitor.
func (t *Tenant) Observe(q *query.Query) { t.Mon.Observe(q) }

// Coordinator owns the tenants and runs shared-budget redesigns.
type Coordinator struct {
	cfg Config
	ts  []*Tenant
	o   coordObs
}

// New builds a coordinator.
func New(cfg Config) *Coordinator {
	return &Coordinator{cfg: cfg, o: newCoordObs(cfg.Metrics)}
}

// Add registers a tenant over the given substrate (com's W and Solve are
// ignored: the workload comes from the monitor's snapshots and solver
// options from the coordinator's Config). The monitor is built on the
// injected clock, so tenant streams replay deterministically.
func (c *Coordinator) Add(name string, com designer.Common, mcfg workload.Config, clock workload.Clock) (*Tenant, error) {
	mon, err := workload.New(mcfg, clock)
	if err != nil {
		return nil, fmt.Errorf("tenant %q: %w", name, err)
	}
	t := &Tenant{
		Name:  name,
		Mon:   mon,
		com:   com,
		model: costmodel.NewAware(com.St, com.Disk),
	}
	c.ts = append(c.ts, t)
	c.o.tenants.Set(int64(len(c.ts)))
	return t, nil
}

// Tenants lists the registered tenants in registration order.
func (c *Coordinator) Tenants() []*Tenant { return c.ts }

// TenantResult is one tenant's slice of an Allocation.
type TenantResult struct {
	// Name is the tenant's name; Workload the monitor snapshot the
	// design was solved for (nil when the tenant had no live templates).
	Name     string
	Workload query.Workload
	// Design is the tenant's new design, routed for Workload; nil for an
	// idle tenant.
	Design *designer.Design
	// PoolSize counts the candidates generated for the current snapshot
	// (before dominance pruning).
	PoolSize int
	// Objective is the tenant's modeled weighted workload seconds under
	// its new design; Size the budget share the selection granted it.
	Objective float64
	Size      int64
}

// Allocation is the outcome of one Redesign: per-tenant designs whose
// sizes share the global budget, plus the solve telemetry.
type Allocation struct {
	Tenants []TenantResult
	// Budget echoes the global budget; TotalSize what the allocation
	// uses; Objective the summed modeled workload seconds.
	Budget    int64
	TotalSize int64
	Objective float64
	// Nodes counts the pooled solve's branch-and-bound nodes; Proven
	// whether it proved optimality (true when every tenant is idle).
	Nodes  int
	Proven bool
	// Problems are the per-tenant selection instances, aligned with
	// Tenants (nil for idle tenants) — exposed so ablations and property
	// tests can solve alternatives on identical instances.
	Problems []*ilp.Problem
}

// prep is one tenant's redesign up to its priced selection instance: the
// monitor's snapshot, and the designer and instance built from it. w is
// nil for an idle tenant.
type prep struct {
	w    query.Workload
	des  *designer.CORADD
	prob *designer.Problem
}

// Redesign snapshots every tenant's monitor, generates and prices the
// per-tenant selection instances, solves the pooled shared-budget
// instance exactly and assembles each tenant's design from its share.
// Deterministic at any Config.Workers.
func (c *Coordinator) Redesign() (*Allocation, error) {
	if len(c.ts) == 0 {
		return nil, fmt.Errorf("tenant: no tenants registered")
	}
	if c.cfg.Budget <= 0 {
		return nil, fmt.Errorf("tenant: non-positive global budget %d", c.cfg.Budget)
	}

	// Phase 1 — read every monitor in tenant order (tenants may share one
	// injected clock, so the reads are sequenced), then generate and price
	// the per-tenant instances fanned out across tenants. Each worker
	// touches only its tenant's state and writes its own slot, so the
	// phase is deterministic at any worker count (the par.ForEach
	// contract). Each tenant's own budget is the full global budget — the
	// pooled solve decides shares.
	preps := make([]prep, len(c.ts))
	for i, t := range c.ts {
		if w := t.Mon.Snapshot(); len(w) > 0 {
			preps[i].w = w
		}
	}
	par.ForEach(len(c.ts), c.cfg.Workers, func(i int) {
		if p := &preps[i]; p.w != nil {
			com := c.ts[i].com
			com.W = p.w
			p.des = designer.NewCORADDWith(com, c.ts[i].model, candgen.DefaultConfig())
			p.prob = p.des.Problem(c.cfg.Budget, c.ts[i].lastChosen)
		}
	})

	// Phase 2 — pool the live tenants' instances and solve them exactly
	// under the global budget, warm-started from their last designs.
	var probs []*ilp.Problem
	var warms [][]int
	var live []int
	for i, p := range preps {
		if p.w == nil {
			continue
		}
		live = append(live, i)
		probs = append(probs, p.prob.ILP)
		warms = append(warms, p.prob.Warm)
	}
	alloc := &Allocation{
		Tenants:  make([]TenantResult, len(c.ts)),
		Budget:   c.cfg.Budget,
		Proven:   true,
		Problems: make([]*ilp.Problem, len(c.ts)),
	}
	var chosen [][]int
	if len(probs) > 0 {
		pl := ilp.Pool(probs, c.cfg.Budget)
		so := c.cfg.Solve
		so.WarmStart = pl.Lift(warms)
		sol := ilp.Solve(pl.P, so)
		chosen = pl.Split(sol)
		alloc.Nodes, alloc.Proven = sol.Nodes, sol.Proven
	}

	// Phase 3 — assemble per-tenant designs (index order: deterministic).
	for li, i := range live {
		t, p := c.ts[i], preps[i]
		sol := &ilp.Solution{
			Chosen: chosen[li],
			Size:   p.prob.ILP.SizeOf(chosen[li]),
			Nodes:  alloc.Nodes,
			Proven: alloc.Proven,
		}
		d := p.des.Routed("tenant/"+t.Name, c.cfg.Budget, p.prob.Designs, sol)
		// Per-tenant plan attribution: charge each template to the object
		// the fresh routing serves it from ("base" for the base design).
		for qi := range p.w {
			obj := "base"
			if ri := d.Routing[qi]; ri >= 0 {
				obj = d.Chosen[ri].Name
			}
			c.o.routed.With(t.Name, obj).Inc()
		}
		t.lastChosen = d.Chosen
		obj := p.prob.ILP.Objective(chosen[li])
		alloc.Tenants[i] = TenantResult{
			Name:      t.Name,
			Workload:  p.w,
			Design:    d,
			PoolSize:  len(p.des.Candidates()),
			Objective: obj,
			Size:      d.Size,
		}
		alloc.Problems[i] = p.prob.ILP
		alloc.Objective += obj
		alloc.TotalSize += d.Size
	}
	for i, p := range preps {
		if p.w == nil {
			alloc.Tenants[i] = TenantResult{Name: c.ts[i].Name}
		}
	}

	c.o.redesigns.Inc()
	c.o.solverNodes.Add(alloc.Nodes)
	for _, tr := range alloc.Tenants {
		c.o.candidates.Add(tr.PoolSize)
	}
	return alloc, nil
}
