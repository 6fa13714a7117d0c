// Package tenant is the multi-tenant design coordinator: N tenant
// workloads — each with its own fact table, online workload monitor and
// candidate pool — share one global space budget. It is the layer the
// ROADMAP's "millions of users" line asks for above the single-workload
// designer, and it changes both halves of the per-tenant cost:
//
//   - Candidate generation is mined, not enumerated. Instead of the full
//     §4 k-means sweep per tenant per redesign, each tenant's pool grows
//     from frequent predicate-column sets mined off its monitor's
//     template table (workload.Monitor.FrequentSets, the Aouiche &
//     Darmont idea) through candgen.MinedCandidates — only candidates
//     supported by observed queries are priced. Pools accumulate across
//     redesigns (union by structural key), and when a tenant's template
//     set hasn't drifted since the last redesign the mining pass is
//     skipped wholesale — the PR 5 pool-reuse carry-over.
//
//   - Selection is decomposed, not pooled. The global budget constraint
//     Σ_t size(S_t) ≤ B couples otherwise independent per-tenant
//     selection ILPs; ilp.DualDecompose dualizes it with one multiplier
//     λ, each probe solving N small penalized subproblems (warm-started,
//     in parallel on internal/par) instead of one monolithic instance
//     over the union of all pools. A feasibility-repair pass fills the
//     slack, and the reported duality gap bounds the distance to the
//     global optimum. When the pooled instance is small the coordinator
//     falls back to solving it exactly (ilp.Pool + ilp.Solve): at that
//     size the monolithic solve is cheap and the gap is exactly zero.
//
// Everything is deterministic for a fixed observation history, injected
// clocks and any worker count — the property the tests pin.
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
	// Workers is the worker count for cross-tenant fan-outs (pool
	// preparation and the dual's per-probe subproblem solves); ≤ 0 means
	// one per CPU. Results are identical at any setting.
	Workers int
	// MonolithicLimit is the pooled candidate count at or below which the
	// coordinator solves the monolithic pooled instance exactly instead
	// of running the dual: 0 means 48, negative means never (always
	// decompose — what the ablation uses to measure the dual itself).
	MonolithicLimit int
	// MinShare is the mining support threshold (decayed-rate share) for
	// frequent predicate sets; 0 means 0.1. MaxSetSize caps mined set
	// cardinality (0 means 3); MaxSets caps sets consumed per redesign
	// (0 means 32); MinedT is the clusterings kept per mined group
	// (0 means 2).
	MinShare   float64
	MaxSetSize int
	MaxSets    int
	MinedT     int
	// DualIters caps the dual ascent's λ probes; 0 means 24.
	DualIters int
	// Solve tunes every exact solve (dual subproblems and the monolithic
	// fallback alike).
	Solve ilp.SolveOptions
	// Metrics, when non-nil, receives the coradd_tenant_* series.
	Metrics *obs.Registry
}

func (c *Config) fill() {
	if c.MonolithicLimit == 0 {
		c.MonolithicLimit = 48
	}
	if c.MinShare <= 0 {
		c.MinShare = 0.1
	}
	if c.MaxSetSize <= 0 {
		c.MaxSetSize = 3
	}
	if c.MaxSets <= 0 {
		c.MaxSets = 32
	}
	if c.MinedT <= 0 {
		c.MinedT = 2
	}
	if c.DualIters <= 0 {
		c.DualIters = 24
	}
}

// Tenant is one registered workload: a monitor observing its stream and
// the accumulated mined candidate pool.
type Tenant struct {
	// Name labels the tenant in allocations and metrics.
	Name string
	// Mon is the tenant's workload monitor; feed it with Observe (or
	// directly) and the next Redesign solves for its snapshot.
	Mon *workload.Monitor

	com   designer.Common
	model *costmodel.Aware

	// pool accumulates mined candidates across redesigns, deduplicated
	// by structural key; lastSig is the template signature at the last
	// mining pass, lastChosen the tenant's current design objects (the
	// warm start for the next redesign).
	pool       []*costmodel.MVDesign
	poolKeys   map[string]bool
	lastSig    string
	lastChosen []*costmodel.MVDesign
}

// Observe feeds one executed query instance to the tenant's monitor.
func (t *Tenant) Observe(q *query.Query) { t.Mon.Observe(q) }

// PoolSize reports the tenant's accumulated candidate pool size.
func (t *Tenant) PoolSize() int { return len(t.pool) }

// Coordinator owns the tenants and runs shared-budget redesigns.
type Coordinator struct {
	cfg Config
	ts  []*Tenant
	o   coordObs
}

// New builds a coordinator.
func New(cfg Config) *Coordinator {
	cfg.fill()
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
		Name:     name,
		Mon:      mon,
		com:      com,
		model:    costmodel.NewAware(com.St, com.Disk),
		poolKeys: make(map[string]bool),
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
	// PoolSize is the accumulated pool after this round's mining; Mined
	// counts fresh candidates this round contributed; ReuseHits counts
	// mined candidates the pool already had (for a wholesale no-drift
	// reuse, the entire pool); PoolReused reports that wholesale reuse —
	// the template signature matched and mining was skipped.
	PoolSize, Mined, ReuseHits int
	PoolReused                 bool
	// Objective is the tenant's modeled weighted workload seconds under
	// its new design; Size the budget share the selection granted it.
	Objective float64
	Size      int64
}

// Allocation is the outcome of one Redesign: per-tenant designs whose
// sizes share the global budget, plus the solve telemetry.
type Allocation struct {
	Tenants []TenantResult
	// Method is "dual" (Lagrangian decomposition) or "monolithic" (the
	// pooled exact fallback).
	Method string
	// Budget echoes the global budget; TotalSize what the allocation
	// uses; Objective the summed modeled workload seconds.
	Budget    int64
	TotalSize int64
	Objective float64
	// LowerBound / Gap / Lambda / DualIters / SubSolves carry the dual's
	// certificate (see ilp.DualSolution); for a monolithic proven solve
	// LowerBound = Objective and Gap = 0 at Lambda = 0.
	LowerBound float64
	Gap        float64
	Lambda     float64
	DualIters  int
	SubSolves  int
	// Nodes sums branch-and-bound nodes across every selection solve of
	// this redesign; Proven whether all of them proved optimality.
	Nodes  int
	Proven bool
	// Problems are the per-tenant selection instances, aligned with
	// Tenants (nil for idle tenants) — exposed so ablations and property
	// tests can compare the decomposition against the monolithic solve
	// on identical instances.
	Problems []*ilp.Problem
}

// prep is one tenant's per-redesign scratch state.
type prep struct {
	w       query.Workload
	gen     *candgen.Generator
	prob    *ilp.Problem
	aligned []*costmodel.MVDesign
	warm    []int
	mined   int
	reuse   int
	reused  bool
}

// Redesign snapshots every tenant's monitor, refreshes mined pools,
// prices per-tenant selection instances and solves the shared-budget
// selection — decomposed by default, monolithic when the pooled instance
// is small. Deterministic at any Config.Workers.
func (c *Coordinator) Redesign() (*Allocation, error) {
	if len(c.ts) == 0 {
		return nil, fmt.Errorf("tenant: no tenants registered")
	}
	if c.cfg.Budget <= 0 {
		return nil, fmt.Errorf("tenant: non-positive global budget %d", c.cfg.Budget)
	}

	// Phase 1 — per-tenant pool refresh and pricing, fanned out across
	// tenants. Each worker touches only its tenant's state; results land
	// in per-tenant slots, so the phase is deterministic at any worker
	// count (the par.ForEach slot-write contract).
	preps := make([]*prep, len(c.ts))
	par.ForEach(len(c.ts), c.cfg.Workers, func(i int) {
		preps[i] = c.prepare(c.ts[i])
	})

	// Phase 2 — gather live tenants and pick the solve method.
	var probs []*ilp.Problem
	var warms [][]int
	var live []int
	totalCands := 0
	for i, p := range preps {
		if p.w == nil {
			continue
		}
		live = append(live, i)
		probs = append(probs, p.prob)
		warms = append(warms, p.warm)
		totalCands += len(p.prob.Cands)
	}

	alloc := &Allocation{
		Tenants:  make([]TenantResult, len(c.ts)),
		Budget:   c.cfg.Budget,
		Problems: make([]*ilp.Problem, len(c.ts)),
	}
	chosen := make([][]int, len(probs))
	if len(probs) > 0 {
		if c.cfg.MonolithicLimit > 0 && totalCands <= c.cfg.MonolithicLimit {
			alloc.Method = "monolithic"
			pl := ilp.Pool(probs, c.cfg.Budget)
			so := c.cfg.Solve
			so.WarmStart = pl.Lift(warms)
			sol := ilp.Solve(pl.P, so)
			chosen = pl.Split(sol)
			alloc.Nodes, alloc.Proven = sol.Nodes, sol.Proven
			alloc.SubSolves = 1
			if sol.Proven {
				alloc.LowerBound = sol.Objective
			}
			c.o.monolithic.Inc()
		} else {
			alloc.Method = "dual"
			// The progress sink only mirrors per-round dual samples into the
			// gap gauge; left nil without a registry so uninstrumented rounds
			// keep the solvers on their unobserved paths.
			var sink func(ilp.ProgressSample)
			if c.cfg.Metrics != nil {
				sink = func(ps ilp.ProgressSample) { c.o.solveGap.Set(ps.Gap()) }
			}
			ds := ilp.DualDecompose(probs, c.cfg.Budget, ilp.DualOptions{
				Solve:      c.cfg.Solve,
				Workers:    c.cfg.Workers,
				MaxIters:   c.cfg.DualIters,
				WarmStarts: warms,
				Progress:   sink,
			})
			chosen = ds.Chosen
			alloc.LowerBound, alloc.Gap, alloc.Lambda = ds.LowerBound, ds.Gap, ds.Lambda
			alloc.DualIters, alloc.SubSolves = ds.Iters, ds.SubSolves
			alloc.Nodes, alloc.Proven = ds.Nodes, ds.Proven
			c.o.dualIters.Add(ds.Iters)
			c.o.subSolves.Add(ds.SubSolves)
		}
	}

	// Phase 3 — assemble per-tenant designs (index order: deterministic).
	for li, i := range live {
		t, p := c.ts[i], preps[i]
		designs := make([]*costmodel.MVDesign, len(chosen[li]))
		for j, ci := range chosen[li] {
			designs[j] = p.aligned[ci]
		}
		d := &designer.Design{
			Name:         "tenant/" + t.Name,
			Style:        designer.StyleCORADD,
			Budget:       c.cfg.Budget,
			Base:         t.com.BaseDesign(),
			Chosen:       designs,
			Size:         p.prob.SizeOf(chosen[li]),
			SolverNodes:  alloc.Nodes,
			SolverProven: alloc.Proven,
		}
		d = designer.Reroute(d, t.model, p.w)
		// Per-tenant plan attribution: charge each template to the object
		// the fresh routing serves it from ("base" for the base design).
		for qi := range p.w {
			obj := "base"
			if ri := d.Routing[qi]; ri >= 0 {
				obj = designs[ri].Name
			}
			c.o.routed.With(t.Name, obj).Inc()
		}
		t.lastChosen = designs
		obj := p.prob.Objective(chosen[li])
		alloc.Tenants[i] = TenantResult{
			Name:       t.Name,
			Workload:   p.w,
			Design:     d,
			PoolSize:   len(t.pool),
			Mined:      p.mined,
			ReuseHits:  p.reuse,
			PoolReused: p.reused,
			Objective:  obj,
			Size:       d.Size,
		}
		alloc.Problems[i] = p.prob
		alloc.Objective += obj
		alloc.TotalSize += d.Size
	}
	for i, p := range preps {
		if p.w == nil {
			alloc.Tenants[i] = TenantResult{Name: c.ts[i].Name, PoolSize: len(c.ts[i].pool)}
		}
	}
	if alloc.Method == "" {
		alloc.Method = "idle"
		alloc.Proven = true
	}

	c.o.redesigns.Inc()
	c.o.solverNodes.Add(alloc.Nodes)
	for _, tr := range alloc.Tenants {
		c.o.minedCands.Add(tr.Mined)
		c.o.poolReuseHits.Add(tr.ReuseHits)
	}
	return alloc, nil
}

// prepare refreshes one tenant's mined pool against its current template
// table and prices its selection instance.
func (c *Coordinator) prepare(t *Tenant) *prep {
	p := &prep{}
	w := t.Mon.Snapshot()
	if len(w) == 0 {
		return p
	}
	p.w = w

	cfg := candgen.DefaultConfig()
	cfg.T = c.cfg.MinedT
	p.gen = candgen.New(t.com.St, t.model, w, cfg)
	p.gen.PKCols = t.com.PKCols

	// Pool refresh: skip mining wholesale when the template set hasn't
	// changed since the last pass; otherwise mine the frequent sets and
	// union fresh candidates in (the pool only grows, so a candidate once
	// mined stays reusable by every later redesign).
	sig := t.Mon.TemplateSignature()
	if sig == t.lastSig && len(t.pool) > 0 {
		p.reused = true
		p.reuse = len(t.pool)
	} else {
		sets := t.Mon.FrequentSets(c.cfg.MinShare, c.cfg.MaxSetSize)
		cols := make([][]string, len(sets))
		for i, s := range sets {
			cols[i] = s.Cols
		}
		for _, d := range p.gen.MinedCandidates(cols, candgen.MinedConfig{T: c.cfg.MinedT, MaxSets: c.cfg.MaxSets}) {
			if t.poolKeys[d.Key()] {
				p.reuse++
				continue
			}
			t.poolKeys[d.Key()] = true
			t.pool = append(t.pool, d)
			p.mined++
		}
		t.lastSig = sig
	}

	// Price the base design and the pool; each tenant's own budget is the
	// full global budget — the dual (or the pooled solve) decides shares.
	baseD := t.com.BaseDesign()
	base := make([]float64, len(w))
	for qi, q := range w {
		est, _ := t.model.Estimate(baseD, q)
		base[qi] = est
	}
	p.prob, p.aligned = feedback.BuildProblem(p.gen, t.pool, base, c.cfg.Budget)
	p.warm = feedback.WarmIndexes(p.aligned, t.lastChosen)
	return p
}
