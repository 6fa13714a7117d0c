package costmodel

import (
	"math"
	"math/rand"
	"sync"
	"testing"

	"coradd/internal/exec"
	"coradd/internal/query"
	"coradd/internal/schema"
	"coradd/internal/stats"
	"coradd/internal/storage"
	"coradd/internal/value"
)

// modelEnv builds t(a, b, c, d, pk): b = a/10 correlated, c independent.
func modelEnv(t testing.TB, n int) (*stats.Stats, *storage.Relation) {
	t.Helper()
	s := schema.New(
		schema.Column{Name: "a", ByteSize: 4},
		schema.Column{Name: "b", ByteSize: 4},
		schema.Column{Name: "c", ByteSize: 4},
		schema.Column{Name: "d", ByteSize: 8},
		schema.Column{Name: "pk", ByteSize: 4},
	)
	rng := rand.New(rand.NewSource(9))
	rows := make([]value.Row, n)
	for i := range rows {
		a := value.V(rng.Intn(100))
		rows[i] = value.Row{a, a / 10, value.V(rng.Intn(60)), value.V(rng.Intn(100)), value.V(i)}
	}
	rel := storage.NewRelation("t", s, s.ColSet("pk"), rows)
	return stats.New(rel, 2048, 10), rel
}

func allColsDesign(st *stats.Stats, key ...string) *MVDesign {
	cols := make([]int, len(st.Rel.Schema.Columns))
	for i := range cols {
		cols[i] = i
	}
	return &MVDesign{Name: "d", Cols: cols, ClusterKey: st.Rel.Schema.ColSet(key...)}
}

func TestDesignGeometry(t *testing.T) {
	st, _ := modelEnv(t, 50000)
	d := allColsDesign(st, "a")
	if d.RowBytes(st) != 24 {
		t.Errorf("RowBytes = %d, want 24", d.RowBytes(st))
	}
	tpp := storage.PageSize / 24
	wantPages := (50000 + tpp - 1) / tpp
	if d.NumPages(st) != wantPages {
		t.Errorf("NumPages = %d, want %d", d.NumPages(st), wantPages)
	}
	if d.Height(st) < 2 {
		t.Errorf("Height = %d", d.Height(st))
	}
	// A projection is smaller.
	sub := &MVDesign{Cols: st.Rel.Schema.ColSet("a", "d"), ClusterKey: []int{st.Rel.Schema.MustCol("a")}}
	if sub.Bytes(st) >= d.Bytes(st) {
		t.Error("narrower MV not smaller")
	}
}

func TestKeyIdentity(t *testing.T) {
	st, _ := modelEnv(t, 1000)
	a := allColsDesign(st, "a", "c")
	b := allColsDesign(st, "a", "c")
	c := allColsDesign(st, "c", "a")
	if a.Key() != b.Key() {
		t.Error("identical designs have different keys")
	}
	if a.Key() == c.Key() {
		t.Error("different key order collides")
	}
	f := allColsDesign(st, "a", "c")
	f.FactRecluster = true
	if f.Key() == a.Key() {
		t.Error("fact flag not part of identity")
	}
}

func TestCoversRequiresAllColumns(t *testing.T) {
	st, _ := modelEnv(t, 1000)
	d := &MVDesign{Cols: st.Rel.Schema.ColSet("a", "d"), ClusterKey: []int{0}}
	qOK := &query.Query{Name: "q", Fact: "t", Predicates: []query.Predicate{query.NewEq("a", 1)}, AggCol: "d"}
	qNo := &query.Query{Name: "q", Fact: "t", Predicates: []query.Predicate{query.NewEq("c", 1)}, AggCol: "d"}
	if !d.Covers(st, qOK) {
		t.Error("should cover a,d query")
	}
	if d.Covers(st, qNo) {
		t.Error("should not cover c query")
	}
}

func TestAwareDistinguishesCorrelatedClustering(t *testing.T) {
	st, _ := modelEnv(t, 200000)
	disk := storage.DefaultDiskParams()
	aware := NewAware(st, disk)
	q := &query.Query{Name: "q", Fact: "t",
		Predicates: []query.Predicate{query.NewEq("b", 4)}, AggCol: "d"}

	corr, kindCorr := aware.Estimate(allColsDesign(st, "a"), q)     // a determines b
	uncorr, _ := aware.Estimate(allColsDesign(st, "pk"), q)         // unique: no help
	direct, kindDirect := aware.Estimate(allColsDesign(st, "b"), q) // clustered on b

	if corr >= uncorr {
		t.Errorf("aware model: correlated %v not cheaper than uncorrelated %v", corr, uncorr)
	}
	if direct > corr {
		t.Errorf("clustering directly on b (%v) should be ≤ CM path (%v)", direct, corr)
	}
	if kindDirect != exec.ClusteredScan {
		t.Errorf("direct clustering path = %v, want clustered", kindDirect)
	}
	if kindCorr != exec.CMScan {
		t.Errorf("correlated path = %v, want cm", kindCorr)
	}
}

func TestObliviousIsFlatAcrossClusterings(t *testing.T) {
	st, _ := modelEnv(t, 200000)
	obl := NewOblivious(st, storage.DefaultDiskParams())
	q := &query.Query{Name: "q", Fact: "t",
		Predicates: []query.Predicate{query.NewEq("b", 4)}, AggCol: "d"}
	// For clusterings whose lead attr is not predicated, the secondary
	// estimate is identical regardless of correlation.
	cA, _ := obl.Estimate(allColsDesign(st, "a"), q)
	cPK, _ := obl.Estimate(allColsDesign(st, "pk"), q)
	if math.Abs(cA-cPK) > 1e-9 {
		t.Errorf("oblivious model not flat: %v vs %v", cA, cPK)
	}
}

func TestObliviousUnderestimatesUncorrelated(t *testing.T) {
	st, rel := modelEnv(t, 200000)
	disk := storage.DefaultDiskParams()
	obl := NewOblivious(st, disk)
	q := &query.Query{Name: "q", Fact: "t",
		Predicates: []query.Predicate{query.NewEq("c", 30)}, AggCol: "d"}
	est, kind := obl.Estimate(allColsDesign(st, "pk"), q)
	if kind != exec.SecondaryScan {
		t.Fatalf("oblivious path = %v, want secondary", kind)
	}
	// Reality: execute the secondary plan on the materialized relation.
	obj := exec.NewObject(rel)
	obj.AddBTree(rel.Schema.ColSet("c"))
	r, err := exec.Execute(obj, q, exec.PlanSpec{Kind: exec.SecondaryScan})
	if err != nil {
		t.Fatal(err)
	}
	real := r.Seconds(disk)
	if est > real/2 {
		t.Errorf("oblivious estimate %v not ≪ real %v (the Figure 10 error)", est, real)
	}
}

func TestAwareTracksRealityOnCMPath(t *testing.T) {
	st, rel := modelEnv(t, 200000)
	disk := storage.DefaultDiskParams()
	aware := NewAware(st, disk)
	q := &query.Query{Name: "q", Fact: "t",
		Predicates: []query.Predicate{query.NewEq("b", 4)}, AggCol: "d"}
	// Model estimate for clustering on a.
	est, _ := aware.Estimate(allColsDesign(st, "a"), q)
	// Reality: materialize the design with the CM the designer would build.
	cols := make([]int, len(rel.Schema.Columns))
	for i := range cols {
		cols[i] = i
	}
	mv := rel.Project("mv", cols, []int{rel.Schema.MustCol("a")})
	obj := exec.NewObject(mv)
	r, err := exec.Best(obj, q, disk)
	if err != nil {
		t.Fatal(err)
	}
	real := r.Seconds(disk)
	if est > real*3 || real > est*3 {
		t.Errorf("aware estimate %v vs real %v diverge beyond 3x", est, real)
	}
}

func TestEstimateInfeasible(t *testing.T) {
	st, _ := modelEnv(t, 1000)
	aware := NewAware(st, storage.DefaultDiskParams())
	d := &MVDesign{Cols: st.Rel.Schema.ColSet("a"), ClusterKey: []int{0}}
	q := &query.Query{Name: "q", Fact: "t", Predicates: []query.Predicate{query.NewEq("c", 1)}}
	if cost, _ := aware.Estimate(d, q); cost < 1e29 {
		t.Errorf("infeasible pair priced %v", cost)
	}
}

// TestValidateRecordedBTrees: a decoded object may record B+Trees only on
// columns inside the schema that it carries.
func TestValidateRecordedBTrees(t *testing.T) {
	for _, tc := range []struct {
		cols []int
		ok   bool
	}{
		{nil, true},
		{[]int{1, 3}, true},
		{[]int{2}, false},  // inside the schema, not carried
		{[]int{-1}, false}, // outside the schema
		{[]int{9}, false},
	} {
		d := &MVDesign{Cols: []int{0, 1, 3}, ClusterKey: []int{0}, BTreeCols: tc.cols}
		if err := d.Validate(5); (err == nil) != tc.ok {
			t.Errorf("B+Trees on %v: Validate = %v, want ok=%v", tc.cols, err, tc.ok)
		}
	}
}

func TestPrefixWalkFragments(t *testing.T) {
	st, _ := modelEnv(t, 50000)
	q := &query.Query{Name: "q", Fact: "t", Predicates: []query.Predicate{
		query.NewEq("a", 5), query.NewIn("c", 1, 2, 3),
	}}
	d := allColsDesign(st, "a", "c")
	frags, used := prefixWalk(st, d, q, nil)
	if len(used) != 2 {
		t.Fatalf("used %d predicates, want 2", len(used))
	}
	if frags != 3 {
		t.Errorf("fragments = %v, want 3 (|IN set|)", frags)
	}
	// Range stops the walk.
	q2 := &query.Query{Name: "q2", Fact: "t", Predicates: []query.Predicate{
		query.NewRange("a", 0, 10), query.NewEq("c", 1),
	}}
	frags, used = prefixWalk(st, d, q2, nil)
	if len(used) != 1 || frags != 1 {
		t.Errorf("range walk: frags=%v used=%d, want 1/1", frags, len(used))
	}
}

func TestEstimateCacheConsistency(t *testing.T) {
	st, _ := modelEnv(t, 20000)
	aware := NewAware(st, storage.DefaultDiskParams())
	d := allColsDesign(st, "a")
	q := &query.Query{Name: "q", Fact: "t", Predicates: []query.Predicate{query.NewEq("b", 2)}, AggCol: "d"}
	c1, k1 := aware.Estimate(d, q)
	c2, k2 := aware.Estimate(d, q)
	if c1 != c2 || k1 != k2 {
		t.Error("cache returned a different answer")
	}
}

// TestEstimateKeyedByContentNotName: a model that already priced a query
// name with one set of literals prices the same name with other literals
// exactly as a fresh model does — a model keeps no estimates, so one can
// be shared across redesigns.
func TestEstimateKeyedByContentNotName(t *testing.T) {
	st, _ := modelEnv(t, 200000)
	disk := storage.DefaultDiskParams()
	named := func(hi value.V) *query.Query {
		return &query.Query{Name: "X", Fact: "t",
			Predicates: []query.Predicate{query.NewRange("a", 0, hi)}, AggCol: "d"}
	}
	narrow, wide := named(5), named(80)
	models := map[string]func() Model{
		"aware":     func() Model { return NewAware(st, disk) },
		"oblivious": func() Model { return NewOblivious(st, disk) },
	}
	for name, fresh := range models {
		for _, key := range []string{"a", "b"} {
			d := allColsDesign(st, key)
			shared := fresh()
			n, _ := shared.Estimate(d, narrow)
			got, gotKind := shared.Estimate(d, wide)
			want, wantKind := fresh().Estimate(d, wide)
			if got != want || gotKind != wantKind {
				t.Errorf("%s model clustered on %s: warmed %v (%v), fresh %v (%v)",
					name, key, got, gotKind, want, wantKind)
			}
			if name == "aware" && n == want {
				t.Errorf("clustered on %s: narrow and wide price alike (%v); the probe tests nothing", key, n)
			}
		}
	}
}

// TestEstimateConcurrentMatchesSequential: goroutines sharing one model —
// as feedback.BuildProblem's workers and the daemon's query handlers do —
// read back exactly the estimates a sequential fresh model computes, for
// distinct query pointers that carry equal content as well.
func TestEstimateConcurrentMatchesSequential(t *testing.T) {
	st, rel := modelEnv(t, 20000)
	disk := storage.DefaultDiskParams()
	var designs []*MVDesign
	for _, key := range []string{"a", "b", "c", "pk"} {
		designs = append(designs, allColsDesign(st, key))
	}
	var qs []*query.Query
	for i := 0; i < 8; i++ {
		qs = append(qs, &query.Query{Name: "q", Fact: "t", AggCol: "d",
			Predicates: []query.Predicate{query.NewRange("a", 0, value.V(10*(i%4)+5))}})
	}
	fresh := NewAware(st, disk)
	want := make(map[[2]int]float64)
	for di, d := range designs {
		for qi, q := range qs {
			want[[2]int{di, qi}], _ = fresh.Estimate(d, q)
		}
	}
	// The shared model prices on statistics of its own, drawn alike but
	// cold, so the goroutines also race to build its synopsis summaries.
	shared := NewAware(stats.New(rel, 2048, 10), disk)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for di, d := range designs {
				for qi, q := range qs {
					if got, _ := shared.Estimate(d, q); got != want[[2]int{di, qi}] {
						t.Errorf("design %d query %d: %v, want %v", di, qi, got, want[[2]int{di, qi}])
					}
				}
			}
		}()
	}
	wg.Wait()
}
