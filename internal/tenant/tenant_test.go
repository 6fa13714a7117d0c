package tenant

import (
	"math/rand"
	"slices"
	"testing"

	"coradd/internal/candgen"
	"coradd/internal/costmodel"
	"coradd/internal/designer"
	"coradd/internal/feedback"
	"coradd/internal/ilp"
	"coradd/internal/query"
	"coradd/internal/schema"
	"coradd/internal/stats"
	"coradd/internal/storage"
	"coradd/internal/value"
	"coradd/internal/workload"
)

// fakeClock is a hand-advanced clock shared by a test's monitors.
type fakeClock struct{ t float64 }

func (c *fakeClock) now() float64 { return c.t }

// testCommon builds a small fact table t(a, b, c, d, pk) with b = a/10,
// seeded per tenant so tenants differ deterministically.
func testCommon(tb testing.TB, seed int64, n int) designer.Common {
	tb.Helper()
	s := schema.New(
		schema.Column{Name: "a", ByteSize: 4},
		schema.Column{Name: "b", ByteSize: 4},
		schema.Column{Name: "c", ByteSize: 4},
		schema.Column{Name: "d", ByteSize: 8},
		schema.Column{Name: "pk", ByteSize: 4},
	)
	rng := rand.New(rand.NewSource(seed))
	rows := make([]value.Row, n)
	for i := range rows {
		a := value.V(rng.Intn(100))
		rows[i] = value.Row{a, a / 10, value.V(rng.Intn(60)), value.V(rng.Intn(1000)), value.V(i)}
	}
	rel := storage.NewRelation("t", s, s.ColSet("pk"), rows)
	st := stats.New(rel, 1024, 6)
	return designer.Common{
		St:      st,
		Disk:    storage.DefaultDiskParams(),
		PKCols:  s.ColSet("pk"),
		BaseKey: s.ColSet("pk"),
	}
}

func eqQ(name, col string, v int) *query.Query {
	return &query.Query{
		Name: name, Fact: "t",
		Predicates: []query.Predicate{query.NewEq(col, value.V(v))},
		AggCol:     "d",
	}
}

func rangeQ(name, col string, lo, hi int) *query.Query {
	return &query.Query{
		Name: name, Fact: "t",
		Predicates: []query.Predicate{query.NewRange(col, value.V(lo), value.V(hi))},
		AggCol:     "d",
	}
}

func twoColQ(name string) *query.Query {
	return &query.Query{
		Name: name, Fact: "t",
		Predicates: []query.Predicate{query.NewEq("a", 5), query.NewRange("c", 0, 19)},
		AggCol:     "d",
	}
}

// buildCoord assembles a 3-tenant coordinator with skewed deterministic
// streams and returns it. Identical inputs for every call, so two builds
// are comparable allocation for allocation.
func buildCoord(tb testing.TB, cfg Config) *Coordinator {
	tb.Helper()
	clk := &fakeClock{}
	co := New(cfg)
	for i := int64(0); i < 3; i++ {
		tn, err := co.Add(string(rune('A'+i)), testCommon(tb, 5+i, 4000), workload.Config{}, clk.now)
		if err != nil {
			tb.Fatal(err)
		}
		// Skewed mixes: tenant 0 hammers a, tenant 1 hammers c ranges,
		// tenant 2 mixes both plus the two-column template.
		switch i {
		case 0:
			for r := 0; r < 8; r++ {
				tn.Observe(eqQ("a-eq", "a", 5))
				tn.Observe(rangeQ("a-rng", "a", 10, 30))
			}
			tn.Observe(eqQ("c-eq", "c", 7))
		case 1:
			for r := 0; r < 6; r++ {
				tn.Observe(rangeQ("c-rng", "c", 0, 9))
				tn.Observe(eqQ("c-eq", "c", 30))
			}
		case 2:
			for r := 0; r < 4; r++ {
				tn.Observe(twoColQ("ac"))
				tn.Observe(eqQ("b-eq", "b", 3))
			}
		}
	}
	return co
}

// contendedBudget probes the pooled candidate mass and returns a budget
// tight enough that the λ=0 relaxation overshoots it.
func contendedBudget(tb testing.TB) int64 {
	tb.Helper()
	co := buildCoord(tb, Config{Budget: 1 << 40, MonolithicLimit: -1})
	alloc, err := co.Redesign()
	if err != nil {
		tb.Fatal(err)
	}
	if alloc.TotalSize <= 0 {
		tb.Fatal("probe redesign chose nothing")
	}
	return alloc.TotalSize / 3
}

// TestRedesignDualBoundsMonolithic is the subsystem property test: the
// decomposed dual-ascent + repair solve either matches the monolithic
// exact ILP over the pooled candidates or provably bounds it within the
// reported duality gap.
func TestRedesignDualBoundsMonolithic(t *testing.T) {
	budget := contendedBudget(t)
	co := buildCoord(t, Config{Budget: budget, MonolithicLimit: -1})
	alloc, err := co.Redesign()
	if err != nil {
		t.Fatal(err)
	}
	if alloc.Method != "dual" {
		t.Fatalf("method %q, want dual", alloc.Method)
	}
	if !alloc.Proven {
		t.Fatal("subproblem solves not proven on this small instance")
	}
	if alloc.TotalSize > budget {
		t.Fatalf("allocation overshoots budget: %d > %d", alloc.TotalSize, budget)
	}
	if alloc.DualIters < 2 {
		t.Fatalf("contended budget solved in %d probes; want an actual ascent", alloc.DualIters)
	}

	var probs []*ilp.Problem
	for _, p := range alloc.Problems {
		if p != nil {
			probs = append(probs, p)
		}
	}
	pooled := ilp.Pool(probs, budget)
	mono := ilp.Solve(pooled.P, ilp.SolveOptions{})
	if !mono.Proven {
		t.Fatal("monolithic reference solve not proven")
	}
	if alloc.Objective < mono.Objective-1e-9 {
		t.Fatalf("dual objective %.6f below monolithic optimum %.6f", alloc.Objective, mono.Objective)
	}
	if alloc.LowerBound > mono.Objective+1e-9 {
		t.Fatalf("dual lower bound %.6f above optimum %.6f", alloc.LowerBound, mono.Objective)
	}
	if alloc.Objective-mono.Objective > alloc.Gap+1e-9 {
		t.Fatalf("optimum outside reported gap: dual %.6f opt %.6f gap %.6f",
			alloc.Objective, mono.Objective, alloc.Gap)
	}
}

// TestRedesignDeterministicAcrossWorkers: identical streams produce
// bit-identical allocations (and identical priced instances) at any
// worker count — the decomposition's par.ForEach fan-outs reduce in index
// order.
func TestRedesignDeterministicAcrossWorkers(t *testing.T) {
	budget := contendedBudget(t)
	run := func(workers int) (*Allocation, [][]string) {
		co := buildCoord(t, Config{Budget: budget, MonolithicLimit: -1, Workers: workers})
		alloc, err := co.Redesign()
		if err != nil {
			t.Fatal(err)
		}
		return alloc, instanceKeys(alloc)
	}
	refAlloc, refPools := run(1)
	for _, w := range []int{2, 4, 8} {
		alloc, pools := run(w)
		if alloc.Objective != refAlloc.Objective || alloc.Lambda != refAlloc.Lambda ||
			alloc.DualIters != refAlloc.DualIters || alloc.Nodes != refAlloc.Nodes ||
			alloc.TotalSize != refAlloc.TotalSize {
			t.Fatalf("workers=%d diverged: obj %v/%v λ %v/%v iters %d/%d nodes %d/%d size %d/%d",
				w, alloc.Objective, refAlloc.Objective, alloc.Lambda, refAlloc.Lambda,
				alloc.DualIters, refAlloc.DualIters, alloc.Nodes, refAlloc.Nodes,
				alloc.TotalSize, refAlloc.TotalSize)
		}
		for i := range refPools {
			if len(pools[i]) != len(refPools[i]) {
				t.Fatalf("workers=%d tenant %d pool size %d vs %d", w, i, len(pools[i]), len(refPools[i]))
			}
			for j := range refPools[i] {
				if pools[i][j] != refPools[i][j] {
					t.Fatalf("workers=%d tenant %d pool entry %d differs", w, i, j)
				}
			}
		}
		for i := range refAlloc.Tenants {
			a, b := alloc.Tenants[i], refAlloc.Tenants[i]
			if a.Size != b.Size || a.Objective != b.Objective || a.PoolSize != b.PoolSize ||
				len(a.Design.Chosen) != len(b.Design.Chosen) {
				t.Fatalf("workers=%d tenant %d result differs", w, i)
			}
		}
	}
}

// instanceKeys lists, per tenant, the structural keys of the candidates in
// its priced selection instance (nil for an idle tenant).
func instanceKeys(alloc *Allocation) [][]string {
	keys := make([][]string, len(alloc.Problems))
	for i, p := range alloc.Problems {
		if p == nil {
			continue
		}
		for _, c := range p.Cands {
			keys[i] = append(keys[i], c.Ref.(*costmodel.MVDesign).Key())
		}
	}
	return keys
}

// chosenKeys lists a design's object keys in order.
func chosenKeys(d *designer.Design) []string {
	keys := make([]string, len(d.Chosen))
	for i, md := range d.Chosen {
		keys[i] = md.Key()
	}
	return keys
}

// routedKeys lists, per query, the key of the object a design routes it
// to ("base" for the base design).
func routedKeys(d *designer.Design) []string {
	keys := make([]string, len(d.Routing))
	for qi, ri := range d.Routing {
		keys[qi] = "base"
		if ri >= 0 {
			keys[qi] = d.Chosen[ri].Key()
		}
	}
	return keys
}

// minedDesigner is the designer a tenant's redesign amounts to, built
// here from its parts: the tenant's current snapshot and model, and
// candidates mined from the frequent predicate sets of its current
// template table, with feedback off.
func minedDesigner(co *Coordinator, tn *Tenant) *designer.CORADD {
	w := tn.Mon.Snapshot()
	var sets [][]string
	for _, s := range tn.Mon.FrequentSets(co.cfg.MinShare, co.cfg.MaxSetSize) {
		sets = append(sets, s.Cols)
	}
	com := tn.com
	com.W = w
	cand := candgen.DefaultConfig()
	cand.T = co.cfg.MinedT
	des := designer.NewCORADDWith(com, tn.model, cand, func(g *candgen.Generator) []*costmodel.MVDesign {
		return g.MinedCandidates(sets, candgen.MinedConfig{T: co.cfg.MinedT, MaxSets: co.cfg.MaxSets})
	})
	des.Feedback = feedback.Config{MaxIters: -1}
	return des
}

// TestOneTenantMatchesDesigner: with one tenant, the coordinator on its
// default path chooses the same objects, routed the same way, as the
// designer built over the same snapshot, model and mined source — the
// coordinator adds only the budget split, which one tenant does not need.
func TestOneTenantMatchesDesigner(t *testing.T) {
	for _, budget := range []int64{contendedBudget(t), 1 << 20, 4 << 20} {
		clk := &fakeClock{}
		co := New(Config{Budget: budget})
		tn, err := co.Add("A", testCommon(t, 5, 4000), workload.Config{}, clk.now)
		if err != nil {
			t.Fatal(err)
		}
		for r := 0; r < 8; r++ {
			tn.Observe(eqQ("a-eq", "a", 5))
			tn.Observe(rangeQ("c-rng", "c", 0, 9))
			tn.Observe(twoColQ("ac"))
			tn.Observe(eqQ("b-eq", "b", 3))
			tn.Observe(rangeQ("d-rng", "d", 0, 99))
		}
		want, err := minedDesigner(co, tn).Design(budget)
		if err != nil {
			t.Fatal(err)
		}
		alloc, err := co.Redesign()
		if err != nil {
			t.Fatal(err)
		}
		got := alloc.Tenants[0].Design
		if len(want.Chosen) == 0 {
			t.Fatalf("budget %d: the designer chose nothing; the comparison tests nothing", budget)
		}
		gotKeys, wantKeys := chosenKeys(got), chosenKeys(want)
		slices.Sort(gotKeys)
		slices.Sort(wantKeys)
		if !slices.Equal(gotKeys, wantKeys) || got.Size != want.Size {
			t.Fatalf("budget %d (%s): coordinator chose %d objects (%d bytes), designer %d (%d bytes)",
				budget, alloc.Method, len(got.Chosen), got.Size, len(want.Chosen), want.Size)
		}
		if !slices.Equal(routedKeys(got), routedKeys(want)) || !slices.Equal(got.Expected, want.Expected) {
			t.Fatalf("budget %d: coordinator routes to a different object or estimate than the designer", budget)
		}
	}
}

// TestPoolReuseAcrossRedesigns: a redesign depends only on what the
// monitor holds. An unchanged monitor redesigns to the same allocation;
// after drift the pool is the set mined from the current template table —
// candidates of templates that fell out of the frequent sets are gone,
// not carried over.
func TestPoolReuseAcrossRedesigns(t *testing.T) {
	clk := &fakeClock{}
	co := New(Config{Budget: 1 << 20})
	tn, err := co.Add("A", testCommon(t, 5, 4000), workload.Config{}, clk.now)
	if err != nil {
		t.Fatal(err)
	}
	for r := 0; r < 8; r++ {
		tn.Observe(eqQ("a-eq", "a", 5))
		tn.Observe(twoColQ("ac"))
	}

	first, err := co.Redesign()
	if err != nil {
		t.Fatal(err)
	}
	if first.Tenants[0].PoolSize == 0 {
		t.Fatal("first redesign mined nothing")
	}
	second, err := co.Redesign()
	if err != nil {
		t.Fatal(err)
	}
	a, b := first.Tenants[0], second.Tenants[0]
	if a.PoolSize != b.PoolSize || a.Size != b.Size || a.Objective != b.Objective ||
		!slices.Equal(chosenKeys(a.Design), chosenKeys(b.Design)) ||
		!slices.Equal(instanceKeys(first)[0], instanceKeys(second)[0]) {
		t.Fatalf("unchanged monitor redesigned differently: pool %d→%d, size %d→%d, objective %v→%v",
			a.PoolSize, b.PoolSize, a.Size, b.Size, a.Objective, b.Objective)
	}
	preDrift := make(map[string]bool)
	for _, d := range minedDesigner(co, tn).Candidates() {
		preDrift[d.Key()] = true
	}

	// Drift: a template on a fresh column takes over the mix, so the old
	// templates' column sets fall below the mining threshold.
	for r := 0; r < 200; r++ {
		tn.Observe(eqQ("d-eq", "d", 100))
	}
	want := minedDesigner(co, tn)
	third, err := co.Redesign()
	if err != nil {
		t.Fatal(err)
	}
	wantProb := want.Problem(co.cfg.Budget, nil)
	if got := third.Tenants[0].PoolSize; got != len(want.Candidates()) {
		t.Fatalf("drifted pool has %d candidates, the current table mines %d", got, len(want.Candidates()))
	}
	if got := instanceKeys(third)[0]; len(got) != len(wantProb.Designs) {
		t.Fatalf("drifted instance has %d candidates, the current mined set prices to %d", len(got), len(wantProb.Designs))
	}
	for i, d := range wantProb.Designs {
		if instanceKeys(third)[0][i] != d.Key() {
			t.Fatalf("drifted instance candidate %d is not the current mined set's", i)
		}
	}
	for _, d := range want.Candidates() {
		delete(preDrift, d.Key())
	}
	if len(preDrift) == 0 {
		t.Fatal("every pre-drift candidate was re-mined; the drift did not move the frequent sets")
	}
}

// TestRedesignMonolithicFallbackAndIdleTenants: small pooled instances
// take the exact fallback with a zero gap; tenants with no observations
// ride along without designs.
func TestRedesignMonolithicFallbackAndIdleTenants(t *testing.T) {
	clk := &fakeClock{}
	co := New(Config{Budget: 1 << 20, MonolithicLimit: 10_000})
	busy, err := co.Add("busy", testCommon(t, 5, 4000), workload.Config{}, clk.now)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := co.Add("idle", testCommon(t, 6, 4000), workload.Config{}, clk.now); err != nil {
		t.Fatal(err)
	}
	for r := 0; r < 8; r++ {
		busy.Observe(eqQ("a-eq", "a", 5))
	}
	alloc, err := co.Redesign()
	if err != nil {
		t.Fatal(err)
	}
	if alloc.Method != "monolithic" {
		t.Fatalf("method %q, want monolithic under the fallback limit", alloc.Method)
	}
	if alloc.Proven && alloc.Gap != 0 {
		t.Fatalf("proven monolithic solve reported gap %v", alloc.Gap)
	}
	if alloc.Tenants[1].Design != nil || alloc.Tenants[1].Workload != nil {
		t.Fatal("idle tenant got a design")
	}
	if alloc.Tenants[0].Design == nil {
		t.Fatal("busy tenant got no design")
	}
	if alloc.Tenants[0].Design.Routing == nil {
		t.Fatal("tenant design not routed")
	}
}

// TestCoordinatorErrors pins the error contract on bad configuration.
func TestCoordinatorErrors(t *testing.T) {
	co := New(Config{Budget: 1 << 20})
	if _, err := co.Redesign(); err == nil {
		t.Fatal("Redesign with no tenants did not error")
	}
	if _, err := co.Add("x", testCommon(t, 5, 1000), workload.Config{}, nil); err == nil {
		t.Fatal("nil clock did not error")
	}
	clk := &fakeClock{}
	co2 := New(Config{})
	if _, err := co2.Add("x", testCommon(t, 5, 1000), workload.Config{}, clk.now); err != nil {
		t.Fatal(err)
	}
	if _, err := co2.Redesign(); err == nil {
		t.Fatal("Redesign with zero budget did not error")
	}
}
