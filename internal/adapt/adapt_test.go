package adapt

import (
	"math"
	"testing"

	"coradd/internal/candgen"
	"coradd/internal/designer"
	"coradd/internal/feedback"
	"coradd/internal/ilp"
	"coradd/internal/query"
	"coradd/internal/ssb"
	"coradd/internal/stats"
	"coradd/internal/storage"
	"coradd/internal/workload"
)

// smallEnv builds a reduced SSB instance for controller tests.
func smallEnv(t testing.TB, rows int) (designer.Common, *designer.Design, Config) {
	t.Helper()
	rel := ssb.Generate(ssb.Config{Rows: rows, Customers: 1000, Suppliers: 200, Parts: 800, Seed: 11})
	st := stats.New(rel, 1024, 5)
	cand := candgen.DefaultConfig()
	cand.Alphas = []float64{0, 0.25}
	cand.Restarts = 2
	cand.MaxInterleavings = 16
	// At this scale the capped search proves the same optima as the 5M
	// default in a fraction of the nodes; every redesign inherits the cap,
	// as in the server tests and the serving experiment's live pass.
	common := designer.Common{
		St: st, W: ssb.Queries(), Disk: storage.DefaultDiskParams(),
		PKCols: ssb.PKCols(rel.Schema), BaseKey: rel.ClusterKey,
		Solve: ilp.SolveOptions{MaxNodes: 200_000},
	}
	budget := rel.HeapBytes() * 2
	des := designer.NewCORADD(common, cand, feedback.Config{MaxIters: 1})
	initial, err := des.Design(budget)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{
		Budget: budget,
		Cand:   cand,
		FB:     feedback.Config{MaxIters: 1},
		Monitor: workload.Config{
			// Effectively no decay: drift comes from the raw distribution
			// shift, which is easy to reason about in a test.
			HalfLife:      1e9,
			MinObserved:   13,
			DistThreshold: 0.2,
		},
		CheckEvery: 13,
	}
	return common, initial, cfg
}

// drivingStream interleaves phase A (base mix) and phase B (augmented
// mix) round robin.
func drivingStream(aEvents, bEvents int) []*query.Query {
	base := ssb.Queries()
	aug := ssb.AugmentedQueries()
	var stream []*query.Query
	for i := 0; i < aEvents; i++ {
		stream = append(stream, base[i%len(base)])
	}
	for i := 0; i < bEvents; i++ {
		stream = append(stream, aug[i%len(aug)])
	}
	return stream
}

// TestControllerAdaptsToShift drives the full loop: the mix shifts to the
// augmented workload, the controller must detect drift, redesign, migrate,
// and end up serving the new mix faster than the initial design would
// have. (That a warm redesign never explores more nodes than a cold one is
// ilp.TestWarmStartNeverExploresMoreNodes and
// designer.TestDesignFromMatchesColdAndPrunes.)
func TestControllerAdaptsToShift(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	common, initial, cfg := smallEnv(t, 6000)
	cache := designer.NewObjectCache()
	cfg.Cache = cache
	c, err := New(common, initial, cfg)
	if err != nil {
		t.Fatal(err)
	}
	stream := drivingStream(78, 364)
	rep, err := c.Run(stream)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Observed != len(stream) {
		t.Fatalf("observed %d of %d events", rep.Observed, len(stream))
	}
	if rep.Redesigns == 0 {
		t.Fatal("the shifted mix never triggered a redesign")
	}
	var changed *RedesignInfo
	for _, ri := range rep.RedesignLog {
		if ri.Changed {
			changed = ri
			break
		}
	}
	if changed == nil {
		t.Fatal("no redesign changed the design")
	}
	if changed.Nodes <= 0 || changed.Solve == nil {
		t.Error("redesign telemetry missing solver nodes or the solve instance")
	}
	if rep.BuildsDone == 0 {
		t.Error("no migration builds completed during the stream")
	}
	if c.Migrating() {
		t.Logf("migration still in flight after %d events (builds done %d)", rep.Observed, rep.BuildsDone)
	}
	if rep.Cum <= 0 || math.Abs(rep.Cum-rep.Clock) > 1e-9 {
		t.Errorf("cum %.4f should equal the clock %.4f (unit event weights)", rep.Cum, rep.Clock)
	}

	// The final deployed state must serve the augmented mix no worse than
	// the initial design does (measured, per representative template).
	aug := ssb.AugmentedQueries()
	model := c.model
	var before, after float64
	for _, q := range aug {
		b, _, err := designer.MeasureTemplateTraced(common.St, common.Disk, cache, model, initial, q)
		if err != nil {
			t.Fatal(err)
		}
		a, _, err := designer.MeasureTemplateTraced(common.St, common.Disk, cache, model, c.Deployed(), q)
		if err != nil {
			t.Fatal(err)
		}
		before += b
		after += a
	}
	if after >= before {
		t.Errorf("adapted state (%.4f s) not faster than initial design (%.4f s) on the new mix", after, before)
	}
}

// TestControllerDeterminism: two identical runs produce bit-identical
// traces — clocks, cums, event sequences and redesign node counts.
func TestControllerDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	common, initial, cfg := smallEnv(t, 6000)
	// Plain ILP redesigns (no feedback iteration) keep this double run —
	// and its race-detector cost — small; determinism is orthogonal.
	cfg.FB.MaxIters = -1
	run := func() Report {
		c, err := New(common, initial, cfg)
		if err != nil {
			t.Fatal(err)
		}
		rep, err := c.Run(drivingStream(39, 104))
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	r1 := run()
	r2 := run()
	if math.Float64bits(r1.Cum) != math.Float64bits(r2.Cum) ||
		math.Float64bits(r1.Clock) != math.Float64bits(r2.Clock) {
		t.Fatalf("cum/clock diverged: %v/%v vs %v/%v", r1.Cum, r1.Clock, r2.Cum, r2.Clock)
	}
	if len(r1.Events) != len(r2.Events) {
		t.Fatalf("event counts diverged: %d vs %d", len(r1.Events), len(r2.Events))
	}
	for i := range r1.Events {
		a, b := r1.Events[i], r2.Events[i]
		if a.Kind != b.Kind || math.Float64bits(a.Clock) != math.Float64bits(b.Clock) || a.Detail != b.Detail {
			t.Fatalf("event %d diverged:\n%+v\n%+v", i, a, b)
		}
	}
	if r1.Redesigns != r2.Redesigns || r1.Replans != r2.Replans || r1.BuildsDone != r2.BuildsDone {
		t.Fatal("counters diverged")
	}
}

// TestReplanFiresUnderTightTolerance: with a near-zero tolerance, the
// measured-vs-modeled divergence after the first completed build forces a
// replan of the remaining schedule, and the migration still completes
// correctly.
func TestReplanFiresUnderTightTolerance(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	common, initial, cfg := smallEnv(t, 6000)
	cfg.FB.MaxIters = -1
	cfg.ReplanTolerance = 1e-12
	c, err := New(common, initial, cfg)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := c.Run(drivingStream(39, 208))
	if err != nil {
		t.Fatal(err)
	}
	if rep.BuildsDone < 2 {
		t.Fatalf("only %d builds completed — no mid-migration window to replan", rep.BuildsDone)
	}
	if rep.Replans == 0 {
		t.Error("zero replans despite an always-diverged tolerance")
	}
	// Every build of the migration must still be deployed exactly once.
	seen := map[string]int{}
	for _, e := range rep.Events {
		if e.Kind == EventBuild {
			seen[e.Detail]++
		}
	}
	for d, n := range seen {
		if n != 1 {
			t.Errorf("build event %q fired %d times", d, n)
		}
	}
}
