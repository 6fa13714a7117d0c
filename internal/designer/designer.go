// Package designer assembles the complete automatic designers the paper
// evaluates: CORADD (correlation-aware candidates + exact ILP + ILP
// feedback + correlation maps), the Commercial baseline (dedicated and
// concatenation-merged candidates + dense B+Tree secondary indexes +
// correlation-oblivious cost model + Greedy(m,k) selection), the Naive
// designer of Experiment 2 (fact re-clusterings and dedicated MVs only),
// and an OPT brute-force reference for small workloads (Figure 7).
package designer

import (
	"fmt"

	"coradd/internal/candgen"
	"coradd/internal/costmodel"
	"coradd/internal/feedback"
	"coradd/internal/ilp"
	"coradd/internal/query"
	"coradd/internal/stats"
	"coradd/internal/storage"
)

// Style says how a design is materialized and how plans are picked at run
// time, mirroring what each tool deploys.
type Style int

const (
	// StyleCORADD deploys correlation maps on each object and routes
	// queries through rewriting — effectively the best available path.
	StyleCORADD Style = iota
	// StyleCommercial deploys dense B+Tree secondary indexes and picks the
	// plan its (oblivious) model believes fastest.
	StyleCommercial
)

// Design is a completed physical design for one fact table's workload.
// Its JSON encoding is the physical specs without the workload-relative
// routing: the design's record in a restart checkpoint (adapt.State).
type Design struct {
	// Name labels the producing designer.
	Name string `json:"name"`
	// Style controls materialization and run-time plan choice.
	Style Style `json:"style"`
	// Budget is the space budget the design was built for.
	Budget int64 `json:"budget"`
	// Size is the total space charged against the budget.
	Size int64 `json:"size"`
	// Chosen are the selected objects.
	Chosen []*costmodel.MVDesign `json:"chosen,omitempty"`
	// Base is the default fact-table design every query can fall back to.
	Base *costmodel.MVDesign `json:"base"`
	// Routing[q] indexes Chosen, or -1 for the base design.
	Routing []int `json:"-"`
	// Expected[q] is the producing model's runtime estimate in seconds.
	Expected []float64 `json:"-"`
	// Paths[q] is the access path the model assumed.
	Paths []costmodel.PathKind `json:"-"`
	// SolverNodes is the number of branch-and-bound nodes the selection
	// explored (summed over feedback iterations; 0 for pure-greedy
	// designers), and SolverProven whether every solve proved optimality —
	// the solver-cost telemetry EXPERIMENTS.md tracks.
	SolverNodes  int  `json:"solver_nodes,omitempty"`
	SolverProven bool `json:"solver_proven,omitempty"`
}

// TotalExpected sums weighted expected runtimes.
func (d *Design) TotalExpected(w query.Workload) float64 {
	total := 0.0
	for qi, q := range w {
		total += q.EffectiveWeight() * d.Expected[qi]
	}
	return total
}

// Designer produces designs for varying budgets.
type Designer interface {
	Name() string
	Design(budget int64) (*Design, error)
}

// Common bundles what every designer needs.
type Common struct {
	St   *stats.Stats
	W    query.Workload
	Disk storage.DiskParams
	// PKCols are the fact table's primary-key columns.
	PKCols []int
	// BaseKey is the fact table's existing clustered key (typically the PK).
	BaseKey []int
	// Solve tunes every exact ILP solve the designers run (preprocessing,
	// Lagrangian bound and incumbent polish are all on with the zero
	// value; see ilp.SolveOptions).
	Solve ilp.SolveOptions
}

// BaseDesign describes the always-available fact table as a design.
func (c *Common) BaseDesign() *costmodel.MVDesign {
	all := make([]int, len(c.St.Rel.Schema.Columns))
	for i := range all {
		all[i] = i
	}
	return &costmodel.MVDesign{Name: "base", Cols: all, ClusterKey: c.BaseKey}
}

// baseTimes prices every query on the base design under model.
func (c *Common) baseTimes(model costmodel.Model) []float64 {
	base := c.BaseDesign()
	out := make([]float64, len(c.W))
	for qi, q := range c.W {
		t, _ := model.Estimate(base, q)
		out[qi] = t
	}
	return out
}

// routedDesign assembles a Design from an ILP solution.
func routedDesign(name string, style Style, c *Common, model costmodel.Model,
	budget int64, designs []*costmodel.MVDesign, sol *ilp.Solution) *Design {

	d := &Design{
		Name:         name,
		Style:        style,
		Budget:       budget,
		Base:         c.BaseDesign(),
		Size:         sol.Size,
		SolverNodes:  sol.Nodes,
		SolverProven: sol.Proven,
	}
	for _, ci := range sol.Chosen {
		d.Chosen = append(d.Chosen, designs[ci])
	}
	routeDesign(d, model, c.W)
	return d
}

// routeDesign fills d's Routing/Expected/Paths for workload w: every query
// on its fastest object under model, falling back to the base design —
// the one routing rule shared by fresh designs, migration prefixes and
// workload-snapshot rerouting.
func routeDesign(d *Design, model costmodel.Model, w query.Workload) {
	d.Routing = make([]int, len(w))
	d.Expected = make([]float64, len(w))
	d.Paths = make([]costmodel.PathKind, len(w))
	for qi, q := range w {
		best, kind := model.Estimate(d.Base, q)
		route := -1
		for i, md := range d.Chosen {
			if t, k := model.Estimate(md, q); t < best {
				best, kind, route = t, k, i
			}
		}
		d.Routing[qi] = route
		d.Expected[qi] = best
		d.Paths[qi] = kind
	}
}

// Reroute returns a copy of d routed for workload w under model: the same
// physical objects with Routing/Expected/Paths recomputed. The adaptive
// controller uses it to measure one deployed design against an evolving
// template workload (an Evaluator's W must align with the design's
// Routing).
func Reroute(d *Design, model costmodel.Model, w query.Workload) *Design {
	// Struct copy so future Design fields survive; the slices routing
	// writes are reallocated (Chosen here, Routing/Expected/Paths by
	// routeDesign), leaving the original untouched.
	nd := *d
	nd.Chosen = append([]*costmodel.MVDesign(nil), d.Chosen...)
	routeDesign(&nd, model, w)
	return &nd
}

// CORADD is the paper's designer, and the one redesign pipeline: batch
// design, the adaptive controller and the multi-tenant coordinator all run
// candidates → priced selection instance → solve → routed design through
// it, differing only in the workload they solve for and the model they
// share.
type CORADD struct {
	Common
	Model *costmodel.Aware
	Gen   *candgen.Generator
	// Feedback configures the ILP feedback loop; Feedback.MaxIters == -1
	// runs no feedback round (plain ILP, used for the Figure 7
	// comparison). A zero Feedback.Solve takes Common.Solve.
	Feedback feedback.Config
	// LastSolve is the final feedback result of the most recent Design /
	// DesignFrom call — the selection instance and solution the adaptive
	// ablation replays to compare warm against cold node counts.
	LastSolve *feedback.Result

	initial []*costmodel.MVDesign
	base    []float64
}

// NewCORADD builds the batch designer: a fresh model and the full §4
// candidate generation, run once; the same candidate pool is reused
// across budgets, as in the paper.
func NewCORADD(c Common, cfg candgen.Config, fb feedback.Config) *CORADD {
	d := NewCORADDWith(c, costmodel.NewAware(c.St, c.Disk), cfg)
	d.Feedback = fb
	return d
}

// NewCORADDWith builds the designer for workload c.W priced by model, its
// initial candidate pool the §4 generation over c.W. A redesign is then a
// function of (statistics, c.W, incumbent, budget) alone: the model keeps
// no estimates between calls (costmodel.Aware), so a model shared across
// redesigns prices exactly as a fresh one would. Feedback is left zero;
// set it before Design.
func NewCORADDWith(c Common, model *costmodel.Aware, cfg candgen.Config) *CORADD {
	gen := candgen.New(c.St, model, c.W, cfg)
	gen.PKCols = c.PKCols
	d := &CORADD{Common: c, Model: model, Gen: gen}
	d.initial = gen.Generate()
	d.base = d.baseTimes(model)
	return d
}

// Name implements Designer.
func (d *CORADD) Name() string {
	if d.Feedback.MaxIters == -1 {
		return "CORADD-noFB"
	}
	return "CORADD"
}

// Candidates exposes the initial candidate pool (before feedback).
func (d *CORADD) Candidates() []*costmodel.MVDesign { return d.initial }

// BaseTimes exposes the per-query runtimes on the base design under the
// correlation-aware model, the fallback column of the ILP.
func (d *CORADD) BaseTimes() []float64 { return d.base }

// Design implements Designer.
func (d *CORADD) Design(budget int64) (*Design, error) {
	return d.DesignFrom(budget, nil)
}

// DesignFrom is the incremental redesign entry point: it runs the same
// pipeline as Design but warm-starts every exact solve from the incumbent
// design's objects (matched into each candidate pool by structural key),
// so regions of the search the incumbent already covers are pruned
// immediately — the solver explores at most the nodes of a cold solve and
// proves the same optimum. incumbent == nil is a plain Design.
func (d *CORADD) DesignFrom(budget int64, incumbent *Design) (*Design, error) {
	var warm []*costmodel.MVDesign
	if incumbent != nil {
		warm = incumbent.Chosen
	}
	ds, err := DesignShared([]*CORADD{d}, [][]*costmodel.MVDesign{warm}, budget, d.Feedback)
	if err != nil {
		return nil, err
	}
	return ds[0], nil
}

// DesignShared is the one design path: every designer's workload designed
// against one shared space budget by the N-block feedback loop
// (feedback.RunBlocks). One designer is the batch design; several are the
// fact tables of one database (Multi.Design) or the tenants of one host
// (internal/tenant). warm holds each designer's incumbent objects (nil
// for cold solves). It returns one routed design per designer, sized by
// its share, and sets each designer's LastSolve. A zero fb.Solve takes
// the first designer's Common.Solve.
func DesignShared(ds []*CORADD, warm [][]*costmodel.MVDesign, budget int64, fb feedback.Config) ([]*Design, error) {
	if fb.Solve.IsZero() {
		fb.Solve = ds[0].Solve
	}
	blocks := make([]feedback.Block, len(ds))
	for i, d := range ds {
		if len(d.W) == 0 {
			return nil, fmt.Errorf("designer: empty workload")
		}
		blocks[i] = feedback.Block{Gen: d.Gen, Designs: d.initial, Base: d.base}
		if i < len(warm) {
			blocks[i].Warm = warm[i]
		}
	}
	out := make([]*Design, len(ds))
	for i, res := range feedback.RunBlocks(blocks, budget, fb) {
		d := ds[i]
		d.LastSolve = res
		design := routedDesign(d.Name(), StyleCORADD, &d.Common, d.Model, budget, res.Designs, res.Sol)
		// Aggregate telemetry: nodes summed and proven ANDed across every
		// solve the feedback loop ran.
		design.SolverNodes = res.Nodes
		design.SolverProven = res.Proven
		out[i] = design
	}
	return out, nil
}
