// Package tenant is the multi-tenant design coordinator: N tenant
// workloads — each with its own fact table, online workload monitor and
// cost model — share one global space budget. Each tenant's redesign runs
// the one redesign pipeline (designer.CORADD) over its monitor's current
// snapshot: the §4 candidate generation at candgen.DefaultConfig. The
// shared budget is the one design path of designer.DesignShared: the
// per-tenant instances are pooled into one block-diagonal instance whose
// only coupling is the budget row and solved exactly once, warm-started
// from every tenant's last design, with no feedback rounds. The
// coordinator adds only the monitors, the fan-out and the metrics. With
// one tenant a redesign is exactly the designer's plain-ILP design.
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
	"coradd/internal/feedback"
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

// Redesign snapshots every tenant's monitor, builds each live tenant's
// designer over its snapshot and designs them all against the global
// budget in one pooled exact solve (designer.DesignShared without
// feedback rounds), warm-started from every tenant's last design. The
// cross-tenant fan-out runs one worker per CPU; the result is identical
// at any GOMAXPROCS.
func (c *Coordinator) Redesign() (*Allocation, error) {
	if len(c.ts) == 0 {
		return nil, fmt.Errorf("tenant: no tenants registered")
	}
	if c.cfg.Budget <= 0 {
		return nil, fmt.Errorf("tenant: non-positive global budget %d", c.cfg.Budget)
	}

	alloc := &Allocation{
		Tenants:  make([]TenantResult, len(c.ts)),
		Budget:   c.cfg.Budget,
		Proven:   true,
		Problems: make([]*ilp.Problem, len(c.ts)),
	}
	// Read every monitor in tenant order (tenants may share one injected
	// clock, so the reads are sequenced), then build the live tenants'
	// designers — §4 generation and base pricing — fanned out across
	// tenants. Each worker touches only its tenant's state and writes its
	// own slot, so the phase is deterministic at any worker count (the
	// par.ForEach contract).
	ws := make([]query.Workload, len(c.ts))
	var live []int
	for i, t := range c.ts {
		alloc.Tenants[i].Name = t.Name
		if ws[i] = t.Mon.Snapshot(); len(ws[i]) > 0 {
			live = append(live, i)
		}
	}
	ds := make([]*designer.CORADD, len(live))
	warms := make([][]*costmodel.MVDesign, len(live))
	par.ForEach(len(live), 0, func(j int) {
		t := c.ts[live[j]]
		com := t.com
		com.W, com.Solve = ws[live[j]], c.cfg.Solve
		ds[j] = designer.NewCORADDWith(com, t.model, candgen.DefaultConfig())
		warms[j] = t.lastChosen
	})
	var designs []*designer.Design
	if len(ds) > 0 {
		var err error
		designs, err = designer.DesignShared(ds, warms, c.cfg.Budget, feedback.Config{MaxIters: -1, Solve: c.cfg.Solve})
		if err != nil {
			return nil, err
		}
		alloc.Nodes, alloc.Proven = designs[0].SolverNodes, designs[0].SolverProven
	}

	// Assemble per-tenant results (index order: deterministic).
	for j, i := range live {
		t, d, res := c.ts[i], designs[j], ds[j].LastSolve
		d.Name = "tenant/" + t.Name
		// Per-tenant plan attribution: charge each template to the object
		// the fresh routing serves it from ("base" for the base design).
		for qi := range ws[i] {
			obj := "base"
			if ri := d.Routing[qi]; ri >= 0 {
				obj = d.Chosen[ri].Name
			}
			c.o.routed.With(t.Name, obj).Inc()
		}
		t.lastChosen = d.Chosen
		alloc.Tenants[i] = TenantResult{
			Name:      t.Name,
			Workload:  ws[i],
			Design:    d,
			PoolSize:  len(ds[j].Candidates()),
			Objective: res.Sol.Objective,
			Size:      d.Size,
		}
		alloc.Problems[i] = res.Prob
		alloc.Objective += res.Sol.Objective
		alloc.TotalSize += d.Size
	}

	c.o.redesigns.Inc()
	c.o.solverNodes.Add(alloc.Nodes)
	for _, tr := range alloc.Tenants {
		c.o.candidates.Add(tr.PoolSize)
	}
	return alloc, nil
}
