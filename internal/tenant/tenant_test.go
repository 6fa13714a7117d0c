package tenant

import (
	"math"
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
// tight enough that the tenants' unconstrained designs overshoot it.
func contendedBudget(tb testing.TB) int64 {
	tb.Helper()
	co := buildCoord(tb, Config{Budget: 1 << 40})
	alloc, err := co.Redesign()
	if err != nil {
		tb.Fatal(err)
	}
	if alloc.TotalSize <= 0 {
		tb.Fatal("probe redesign chose nothing")
	}
	return alloc.TotalSize / 3
}

// TestRedesignPooledIsOptimal is the subsystem property test: under a
// contended budget the pooled solve is proven and within budget, every
// tenant's share is optimal for its own instance at the space it was
// granted (no tenant could do better without taking space from another),
// and the allocation is no worse than the fixed splits that divide the
// budget equally, give all of it to one tenant, or move one tenant's share
// to another.
func TestRedesignPooledIsOptimal(t *testing.T) {
	budget := contendedBudget(t)
	co := buildCoord(t, Config{Budget: budget})
	alloc, err := co.Redesign()
	if err != nil {
		t.Fatal(err)
	}
	if !alloc.Proven {
		t.Fatal("pooled solve not proven on this small instance")
	}
	if alloc.TotalSize > budget {
		t.Fatalf("allocation overshoots budget: %d > %d", alloc.TotalSize, budget)
	}

	// splitObjective is the summed optimum when tenant i may use shares[i].
	splitObjective := func(shares []int64) float64 {
		sum := 0.0
		for i, p := range alloc.Problems {
			q := *p
			q.Budget = shares[i]
			sol := ilp.Solve(&q, ilp.SolveOptions{})
			if !sol.Proven {
				t.Fatalf("reference solve of tenant %d not proven", i)
			}
			sum += sol.Objective
		}
		return sum
	}
	granted := make([]int64, len(alloc.Tenants))
	for i, tr := range alloc.Tenants {
		granted[i] = tr.Size
	}
	if got := splitObjective(granted); math.Abs(got-alloc.Objective) > 1e-9 {
		t.Fatalf("a tenant's share is not optimal at its granted size: %.6f vs %.6f", alloc.Objective, got)
	}
	n := len(alloc.Tenants)
	splits := [][]int64{make([]int64, n)}
	for i := range splits[0] {
		splits[0][i] = budget / int64(n)
	}
	for to := range granted {
		all := make([]int64, n)
		all[to] = budget
		splits = append(splits, all)
		for from := range granted {
			if from != to && granted[from] > 0 {
				moved := slices.Clone(granted)
				moved[to] += moved[from]
				moved[from] = 0
				splits = append(splits, moved)
			}
		}
	}
	for _, shares := range splits {
		if obj := splitObjective(shares); alloc.Objective > obj+1e-9 {
			t.Fatalf("split %v reaches %.6f, below the pooled objective %.6f", shares, obj, alloc.Objective)
		}
	}
}

// TestRedesignDeterministicAcrossWorkers: identical streams produce
// bit-identical allocations (and identical priced instances) at any
// worker count — the per-tenant par.ForEach fan-out writes its own slots
// and the pooled solve reads them in index order.
func TestRedesignDeterministicAcrossWorkers(t *testing.T) {
	budget := contendedBudget(t)
	run := func(workers int) (*Allocation, [][]string) {
		co := buildCoord(t, Config{Budget: budget, Workers: workers})
		alloc, err := co.Redesign()
		if err != nil {
			t.Fatal(err)
		}
		return alloc, instanceKeys(alloc)
	}
	refAlloc, refPools := run(1)
	for _, w := range []int{2, 4, 8} {
		alloc, pools := run(w)
		if alloc.Objective != refAlloc.Objective || alloc.Nodes != refAlloc.Nodes ||
			alloc.TotalSize != refAlloc.TotalSize {
			t.Fatalf("workers=%d diverged: obj %v/%v nodes %d/%d size %d/%d",
				w, alloc.Objective, refAlloc.Objective, alloc.Nodes, refAlloc.Nodes,
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

// snapshotDesigner is the plain-ILP batch designer over tenant tn's
// current snapshot: what a one-tenant redesign amounts to.
func snapshotDesigner(tn *Tenant) *designer.CORADD {
	com := tn.com
	com.W = tn.Mon.Snapshot()
	return designer.NewCORADD(com, candgen.DefaultConfig(), feedback.Config{MaxIters: -1})
}

// TestOneTenantMatchesDesigner: with one tenant, the coordinator chooses
// exactly what the batch designer does over the same snapshot — the same
// objects, routed the same way, at the same size after the same search —
// since the pooled instance of one tenant is that tenant's instance.
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
		want, err := snapshotDesigner(tn).Design(budget)
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
		if !slices.Equal(gotKeys, wantKeys) || got.Size != want.Size ||
			alloc.Nodes != want.SolverNodes || alloc.Proven != want.SolverProven {
			t.Fatalf("budget %d: coordinator chose %d objects (%d bytes, %d nodes), designer %d (%d bytes, %d nodes)",
				budget, len(got.Chosen), got.Size, alloc.Nodes, len(want.Chosen), want.Size, want.SolverNodes)
		}
		if !slices.Equal(routedKeys(got), routedKeys(want)) || !slices.Equal(got.Expected, want.Expected) {
			t.Fatalf("budget %d: coordinator routes to a different object or estimate than the designer", budget)
		}
	}
}

// TestPoolReuseAcrossRedesigns: a redesign depends only on what the
// monitor holds. An unchanged monitor redesigns to the same allocation;
// after drift the pool is the §4 generation over the new snapshot —
// candidates of templates that faded from the mix are gone, not carried
// over.
func TestPoolReuseAcrossRedesigns(t *testing.T) {
	clk := &fakeClock{}
	co := New(Config{Budget: 1 << 20})
	tn, err := co.Add("A", testCommon(t, 5, 4000), workload.Config{HalfLife: 10}, clk.now)
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
		t.Fatal("first redesign generated nothing")
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
	preDrift := snapshotDesigner(tn).Candidates()

	// Drift: the clock moves on and a template on a fresh column takes over
	// the mix, so the old templates' rates decay away.
	for r := 0; r < 200; r++ {
		clk.t++
		tn.Observe(eqQ("d-eq", "d", 100))
	}
	third, err := co.Redesign()
	if err != nil {
		t.Fatal(err)
	}
	com := tn.com
	com.W = third.Tenants[0].Workload
	gen := candgen.New(com.St, costmodel.NewAware(com.St, com.Disk), com.W, candgen.DefaultConfig())
	gen.PKCols = com.PKCols
	want := gen.Generate()
	if got := third.Tenants[0].PoolSize; got != len(want) {
		t.Fatalf("drifted pool has %d candidates, the §4 generation over the snapshot %d", got, len(want))
	}
	sd := snapshotDesigner(tn)
	_, wantDesigns := feedback.BuildProblem(sd.Gen, sd.Candidates(), sd.BaseTimes(), co.cfg.Budget)
	if got := instanceKeys(third)[0]; !slices.Equal(got, designKeys(wantDesigns)) {
		t.Fatalf("drifted instance (%d candidates) is not the snapshot's priced generation (%d)", len(got), len(wantDesigns))
	}
	if slices.Equal(designKeys(preDrift), designKeys(want)) {
		t.Fatal("the drift did not move the generated pool")
	}
}

// designKeys lists designs' structural keys in order.
func designKeys(ds []*costmodel.MVDesign) []string {
	keys := make([]string, len(ds))
	for i, d := range ds {
		keys[i] = d.Key()
	}
	return keys
}

// TestRedesignMonolithicFallbackAndIdleTenants: the pooled (monolithic)
// solve covers a busy tenant and proves its optimum; tenants with no
// observations ride along without designs.
func TestRedesignMonolithicFallbackAndIdleTenants(t *testing.T) {
	clk := &fakeClock{}
	co := New(Config{Budget: 1 << 20})
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
	if !alloc.Proven {
		t.Fatal("pooled solve not proven")
	}
	if alloc.Tenants[1].Design != nil || alloc.Tenants[1].Workload != nil || alloc.Problems[1] != nil {
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
