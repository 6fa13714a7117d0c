package main

import (
	"fmt"
	"runtime"
	"time"

	"coradd/internal/designer"
	"coradd/internal/exp"
	"coradd/internal/ssb"
	"coradd/internal/stats"
)

// dataSeed pins the fact rows of the in-process workloads. Which rows
// are generated decides which designs win, and with them the run time:
// over ten data seeds design_s ranged 4.2–6.9 s and materialize_s
// 12.0–14.4 s, each repeating to within 2 % at a fixed seed. A metric
// that moves that much with the seed cannot show a 10 % regression, so
// the rows are fixed and --seed draws what the designer actually reads:
// the statistics synopsis (a 1024-row sample).
const dataSeed = 42

// newEnv generates the SSB fact table (pinned rows) and the statistics
// synopsis sampled with synopsisSeed, the way every product entry point
// does (ssb.Generate + stats.New, as exp.NewSSBEnv). The solver cap is
// the benchmark's.
func newEnv(synopsisSeed int64, rows int, augmented bool) *exp.Env {
	s := exp.QuickScale()
	s.Seed, s.SSBRows = dataSeed, rows
	rel := ssb.Generate(ssbConfig(rows, dataSeed, false))
	st := stats.New(rel, s.Sample, synopsisSeed)
	w := ssb.Queries()
	if augmented {
		w = ssb.AugmentedQueries()
	}
	return &exp.Env{Rel: rel, St: st, W: w, Scale: s, Common: commonFor(st, w)}
}

func budgetsOf(env *exp.Env, mults []float64) []int64 {
	out := make([]int64, len(mults))
	for i, m := range mults {
		out[i] = int64(m * float64(env.Rel.HeapBytes()))
	}
	return out
}

// designAll runs the designer the way a DBA does: build it (candidate
// generation happens once) and solve one design per budget.
func designAll(env *exp.Env, budgets []int64) ([]*designer.Design, error) {
	des := designer.NewCORADD(env.Common, env.Scale.Cand, env.Scale.FB)
	designs := make([]*designer.Design, len(budgets))
	for i, b := range budgets {
		d, err := des.Design(b)
		if err != nil {
			return nil, err
		}
		if d.Size > d.Budget {
			return nil, fmt.Errorf("design at budget %d has size %d", d.Budget, d.Size)
		}
		designs[i] = d
	}
	return designs, nil
}

// baseOnly is the design with no objects: every query falls back to the
// fact table. It is the reference every design's answers are checked
// against.
func baseOnly(c *designer.Common) *designer.Design {
	d := &designer.Design{Name: "base-only", Style: designer.StyleCORADD, Base: c.BaseDesign()}
	d.Routing = make([]int, len(c.W))
	for i := range d.Routing {
		d.Routing[i] = -1
	}
	return d
}

// sameSums checks that every materialized design answers every query
// exactly as the first one does (answers are plan-invariant).
func sameSums(ev *designer.Evaluator, mats []*designer.Materialized) error {
	var ref []int64
	for i, m := range mats {
		r, err := ev.Run(m)
		if err != nil {
			return err
		}
		if i == 0 {
			ref = r.Sums
			continue
		}
		for qi := range ref {
			if r.Sums[qi] != ref[qi] {
				return fmt.Errorf("query %s answers %d on design %d but %d on design 0",
					ev.W[qi].Name, r.Sums[qi], i, ref[qi])
			}
		}
	}
	return nil
}

// execLoop runs whole rounds of Evaluator.Run over every materialized
// design for at least d and returns executions and wall time.
func execLoop(ev *designer.Evaluator, mats []*designer.Materialized, d time.Duration) (int, time.Duration, error) {
	start := time.Now()
	n := 0
	for time.Since(start) < d {
		for _, m := range mats {
			if _, err := ev.Run(m); err != nil {
				return 0, 0, err
			}
			n += len(ev.W)
		}
	}
	return n, time.Since(start), nil
}

func totalAllocGB() float64 {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.TotalAlloc) / 1e9
}

func selfRSS(res *workloadResult) error {
	rss, err := peakRSSMB("self")
	if err != nil {
		return err
	}
	res.set("rss_mb", rss, 1)
	return nil
}

var designBudgets = []float64{0.5, 1, 2, 4}

// runDesignSSB52 is the DBA's wait: 52 queries, four budgets, the
// designer reading only the statistics synopsis. No row is scanned until
// the quality check, so it isolates candgen, feedback, ilp and costmodel.
func runDesignSSB52(cfg *runConfig) (*workloadResult, error) {
	res := newResult("design_ssb52", cfg.seed)
	var env *exp.Env
	var setups []float64
	for range 3 * setupReps { // a tenth of a second each: more of them
		start := time.Now()
		env = newEnv(cfg.seed, 60_000, true)
		setups = append(setups, sec(time.Since(start)))
	}
	res.set("setup_s", median(setups), len(setups))
	budgets := budgetsOf(env, designBudgets)

	// Each pass designs for a synopsis of its own (the first for the one
	// set up above), so a run's median is over instances, not repeats.
	alloc0 := totalAllocGB()
	var passes []float64
	var designs []*designer.Design
	for start := time.Now(); len(passes) == 0 || time.Since(start) < cfg.phase(1); {
		penv := env
		if len(passes) > 0 {
			penv = newEnv(cfg.seed+7919*int64(len(passes)), 60_000, true)
		}
		t := time.Now()
		ds, err := designAll(penv, budgets)
		if err != nil {
			return nil, err
		}
		passes = append(passes, sec(time.Since(t)))
		if designs == nil {
			designs = ds
		}
	}
	res.set("design_s", median(passes), len(passes))
	res.set("p50_ms", median(passes)*1e3, len(passes))
	res.check("all %d designs of %d passes fit their budgets", len(passes)*len(budgets), len(passes))

	// Quality check: materialize and run each design over the real rows.
	ev := designer.NewEvaluator(env.Rel, env.W, env.Common.Disk)
	base, err := ev.Materialize(baseOnly(&env.Common))
	if err != nil {
		return nil, err
	}
	mats := []*designer.Materialized{base}
	quality := 0.0
	for _, d := range designs {
		m, err := ev.Materialize(d)
		if err != nil {
			return nil, err
		}
		r, err := ev.Run(m)
		if err != nil {
			return nil, err
		}
		quality += r.Total
		mats = append(mats, m)
	}
	res.set("design_quality_sec", quality, len(designs))
	if err := sameSums(ev, mats); err != nil {
		return nil, fmt.Errorf("design_ssb52: %v", err)
	}
	res.check("%d queries answer identically on the fact table and on all %d designs", len(env.W), len(designs))
	n, wall, err := execLoop(ev, mats, cfg.phase(0.2))
	if err != nil {
		return nil, err
	}
	res.set("qps", float64(n)/wall.Seconds(), n)
	res.set("alloc_gb", totalAllocGB()-alloc0, 1)
	res.Attempted = len(passes)*len(budgets) + n
	return res, selfRSS(res)
}

var buildBudgets = []float64{0.5, 1, 4}

// runBuildExecSSB13 uses the storage/exec/btree/cm layer two ways —
// builds beside reads — on designs the solver proves in well under a
// second, so a solver change must read "no change" here.
func runBuildExecSSB13(cfg *runConfig) (*workloadResult, error) {
	res := newResult("build_exec_ssb13", cfg.seed)
	var env *exp.Env
	var designs []*designer.Design
	var setups []float64
	for range setupReps + 2 {
		start := time.Now()
		env = newEnv(cfg.seed, 300_000, false)
		var err error
		if designs, err = designAll(env, budgetsOf(env, buildBudgets)); err != nil {
			return nil, err
		}
		setups = append(setups, sec(time.Since(start)))
	}
	res.set("setup_s", median(setups), len(setups))

	alloc0 := totalAllocGB()
	ev := designer.NewEvaluator(env.Rel, env.W, env.Common.Disk)
	base, err := ev.Materialize(baseOnly(&env.Common))
	if err != nil {
		return nil, err
	}
	mats := []*designer.Materialized{base}
	start := time.Now()
	for _, d := range designs {
		m, err := ev.Materialize(d)
		if err != nil {
			return nil, err
		}
		mats = append(mats, m)
	}
	materialize := time.Since(start)
	var built int64
	for _, m := range mats {
		built += m.Bytes
	}
	cfg.logf("materialized %.1f MB in %.2fs", float64(built)/1e6, sec(materialize))
	res.set("materialize_s", sec(materialize), len(designs))
	res.set("p50_ms", ms(materialize), 1)

	if err := sameSums(ev, mats); err != nil {
		return nil, fmt.Errorf("build_exec_ssb13: %v", err)
	}
	res.check("%d queries answer identically on the fact table and on all %d designs", len(env.W), len(designs))
	n, wall, err := execLoop(ev, mats, cfg.phase(0.3))
	if err != nil {
		return nil, err
	}
	res.set("exec_qps", float64(n)/wall.Seconds(), n)
	res.set("qps", float64(n)/wall.Seconds(), n)
	res.set("alloc_gb", totalAllocGB()-alloc0, 1)
	res.Attempted = len(designs) + n
	return res, selfRSS(res)
}
