// Package scenario builds the environments CORADD is exercised on: a
// generated fact table (SSB or chronologically loaded SSB here, APB-1 in
// the apbenv subpackage), its statistics synopsis, a workload and the
// designer inputs, at a given Scale. The experiments, the serving daemon
// and the designer CLI all construct their environment here, so the
// dimension sizing, the seeds and the solver node cap have exactly one
// definition. The designer itself never imports this package: it reads
// only a workload and a synopsis. APB-1 lives apart so that the daemon,
// which serves SSB only, does not link its generator.
package scenario

import (
	"fmt"
	"os"
	"strconv"

	"coradd/internal/candgen"
	"coradd/internal/designer"
	"coradd/internal/feedback"
	"coradd/internal/ilp"
	"coradd/internal/query"
	"coradd/internal/ssb"
	"coradd/internal/stats"
	"coradd/internal/storage"
)

// Scale sets environment sizes. Quick is used by tests and benches; Full by
// cmd/experiments -full.
type Scale struct {
	// SSBRows / APBRows are fact-table sizes.
	SSBRows, APBRows int
	// Sample is the statistics synopsis size.
	Sample int
	// BudgetMults are space budgets as multiples of the fact heap size
	// (the paper sweeps 0–22 GB against a 2.5 GB heap).
	BudgetMults []float64
	// Cand configures candidate generation.
	Cand candgen.Config
	// FB configures ILP feedback.
	FB feedback.Config
	// Seed drives all data generation.
	Seed int64
	// ChronoSSB switches every SSB environment to the chronologically
	// loaded variant (ssb.Config.ChronoDates: orderdate nearly monotone in
	// the orderkey clustering) — the load-order-correlation scenario
	// (cmd/experiments -chrono).
	ChronoSSB bool
}

// QuickScale is small enough for the test suite.
func QuickScale() Scale {
	cand := candgen.DefaultConfig()
	cand.Alphas = []float64{0, 0.25}
	cand.Restarts = 2
	cand.MaxInterleavings = 16
	return Scale{
		SSBRows:     60_000,
		APBRows:     50_000,
		Sample:      1024,
		BudgetMults: []float64{0.5, 1, 2, 4, 6},
		Cand:        cand,
		FB:          feedback.Config{MaxIters: 1},
		Seed:        42,
	}
}

// FullScale mirrors the paper's sweeps more closely.
func FullScale() Scale {
	s := QuickScale()
	s.SSBRows = 200_000
	s.APBRows = 150_000
	s.Sample = 4096
	s.BudgetMults = []float64{0.25, 0.5, 1, 2, 3, 4, 6, 8, 10}
	s.Cand = candgen.DefaultConfig()
	s.FB = feedback.Config{MaxIters: 3}
	return s
}

// Env bundles a generated dataset with its statistics and designer inputs.
type Env struct {
	Rel    *storage.Relation
	St     *stats.Stats
	W      query.Workload
	Common designer.Common
	Scale  Scale

	evaluator *designer.Evaluator
}

// Evaluator returns the environment's shared design evaluator, created on
// first use. Sharing it across experiments (and across repeated runs of
// one experiment, as the benchmarks do) lets the materialization cache
// reuse physical objects wherever designs overlap.
func (e *Env) Evaluator() *designer.Evaluator {
	if e.evaluator == nil {
		e.evaluator = designer.NewEvaluator(e.Rel, e.W, e.Common.Disk)
	}
	return e.evaluator
}

// FlushCaches drops the environment's materialization cache, releasing
// the previous experiment phase's physical objects. Call between phases
// of a long sweep; repeated runs of one experiment (the benchmarks) keep
// the cache warm on purpose.
func (e *Env) FlushCaches() {
	if e.evaluator != nil {
		e.evaluator.Cache.Flush()
	}
}

// Budgets converts the scale's multipliers into byte budgets for the
// environment's fact heap.
func (e *Env) Budgets() []int64 {
	out := make([]int64, len(e.Scale.BudgetMults))
	for i, m := range e.Scale.BudgetMults {
		out[i] = int64(m * float64(e.Rel.HeapBytes()))
	}
	return out
}

// SSB generates the SSB environment; augmented selects the 52-query
// workload.
func SSB(s Scale, augmented bool) *Env {
	return newSSB(s, augmented, false)
}

// SSBChrono generates the SSB environment with chronologically numbered
// orders (orderdate nearly monotone in the orderkey clustering), the
// load-order correlation the corridx ablation exploits.
func SSBChrono(s Scale) *Env {
	return newSSB(s, false, true)
}

func newSSB(s Scale, augmented, chrono bool) *Env {
	// Dimension sizes follow the fact table, with floors that keep small
	// tables' foreign keys spread over a realistic number of keys.
	rel := ssb.Generate(ssb.Config{
		Rows:        s.SSBRows,
		Customers:   max(1000, s.SSBRows/30),
		Suppliers:   max(200, s.SSBRows/400),
		Parts:       max(1000, s.SSBRows/40),
		Seed:        s.Seed,
		ChronoDates: chrono || s.ChronoSSB,
	})
	w := ssb.Queries()
	if augmented {
		w = ssb.AugmentedQueries()
	}
	return NewEnv(s, rel, s.Seed+1, w, ssb.PKCols(rel.Schema))
}

// NewEnv assembles an environment over a generated fact table: the
// statistics synopsis (Scale.Sample rows drawn with statsSeed) and the
// designer inputs, with every design's selection capped by
// SolverMaxNodes. The APB-1 constructor (internal/scenario/apbenv) builds
// through it too.
func NewEnv(s Scale, rel *storage.Relation, statsSeed int64, w query.Workload, pk []int) *Env {
	st := stats.New(rel, s.Sample, statsSeed)
	return &Env{
		Rel: rel, St: st, W: w, Scale: s,
		Common: designer.Common{
			St: st, W: w, Disk: storage.DefaultDiskParams(),
			PKCols: pk, BaseKey: rel.ClusterKey,
			Solve: ilp.SolveOptions{MaxNodes: mustSolverMaxNodes()},
		},
	}
}

// maxNodesEnv names the one environment knob: the branch-and-bound node
// cap for each design an environment's designers select, every feedback
// round together.
const maxNodesEnv = "CORADD_SOLVER_MAXNODES"

// parseMaxNodes validates a CORADD_SOLVER_MAXNODES value: a base-10
// integer, where 0 keeps the solver's 5M default and a negative value
// means unlimited. Anything else is an error naming the variable and the
// value — "5M" must not quietly mean the default.
func parseMaxNodes(v string) (int, error) {
	n, err := strconv.Atoi(v)
	if err != nil {
		return 0, fmt.Errorf("%s=%q: not a base-10 node count (0 = the 5M default, negative = unlimited): %v", maxNodesEnv, v, err)
	}
	return n, nil
}

// SolverMaxNodes reads CORADD_SOLVER_MAXNODES: unset is 0 (the solver's
// default cap). The cap is per design: feedback.RunBlocks shares it
// across the design's rounds. It is how a caller that cannot pass options — the daemon
// under a benchmark harness, a long -full experiment run to proven
// optimality — changes the cap. The commands call it at startup so that
// an invalid value stops them with its error before any work.
func SolverMaxNodes() (int, error) {
	v := os.Getenv(maxNodesEnv)
	if v == "" {
		return 0, nil
	}
	return parseMaxNodes(v)
}

// mustSolverMaxNodes is SolverMaxNodes for the constructors, which panic
// on an invalid value rather than run with a cap nobody asked for.
func mustSolverMaxNodes() int {
	n, err := SolverMaxNodes()
	if err != nil {
		panic("scenario: " + err.Error())
	}
	return n
}
