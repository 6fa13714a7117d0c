package stats

import (
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"coradd/internal/query"
	"coradd/internal/schema"
	"coradd/internal/storage"
	"coradd/internal/value"
)

// hierRelation builds t(a, b, c, u) where b = a/12 (a determines b), c is
// independent, u is unique — the shape of the paper's date hierarchy.
func hierRelation(n int, seed int64) *storage.Relation {
	s := schema.New(
		schema.Column{Name: "a", ByteSize: 4}, // like yearmonth (84 values)
		schema.Column{Name: "b", ByteSize: 4}, // like year (7 values)
		schema.Column{Name: "c", ByteSize: 4}, // independent
		schema.Column{Name: "u", ByteSize: 4}, // unique
	)
	rng := rand.New(rand.NewSource(seed))
	rows := make([]value.Row, n)
	for i := range rows {
		a := value.V(rng.Intn(84))
		rows[i] = value.Row{a, a / 12, value.V(rng.Intn(50)), value.V(i)}
	}
	return storage.NewRelation("t", s, s.ColSet("u"), rows)
}

func TestExactSingleColumnDistincts(t *testing.T) {
	st := New(hierRelation(20000, 1), 1024, 2)
	if got := st.Distinct(0); got != 84 {
		t.Errorf("distinct(a) = %v, want 84", got)
	}
	if got := st.Distinct(1); got != 7 {
		t.Errorf("distinct(b) = %v, want 7", got)
	}
	if got := st.Distinct(3); got != 20000 {
		t.Errorf("distinct(u) = %v, want 20000", got)
	}
}

func TestCompositeDistinctEstimate(t *testing.T) {
	st := New(hierRelation(20000, 2), 2048, 3)
	// (a,b) has exactly 84 joint values because a determines b.
	got := st.Distinct(0, 1)
	if got < 60 || got > 130 {
		t.Errorf("estimated distinct(a,b) = %v, want ≈ 84", got)
	}
	// (a,c) has ≈ 84×50 = 4200 joint values.
	got = st.Distinct(0, 2)
	if got < 2000 || got > 8000 {
		t.Errorf("estimated distinct(a,c) = %v, want ≈ 4200", got)
	}
}

func TestExactModeComposite(t *testing.T) {
	st := New(hierRelation(20000, 3), 1024, 4)
	st.Exact = true
	if got := st.Distinct(0, 1); got != 84 {
		t.Errorf("exact distinct(a,b) = %v, want 84", got)
	}
}

func TestStrengthDirections(t *testing.T) {
	st := New(hierRelation(30000, 4), 2048, 5)
	st.Exact = true
	// a → b is a perfect dependency.
	if s := st.Strength([]int{0}, []int{1}); s < 0.99 {
		t.Errorf("strength(a→b) = %v, want 1", s)
	}
	// b → a is weak: each b co-occurs with 12 a values.
	if s := st.Strength([]int{1}, []int{0}); s < 0.05 || s > 0.15 {
		t.Errorf("strength(b→a) = %v, want ≈ 1/12", s)
	}
	// a → c: no correlation; strength ≈ 1/50.
	if s := st.Strength([]int{0}, []int{2}); s > 0.1 {
		t.Errorf("strength(a→c) = %v, want ≈ 0.02", s)
	}
}

func TestStrengthNeverExceedsOne(t *testing.T) {
	st := New(hierRelation(10000, 5), 512, 6)
	prop := func(i, j uint8) bool {
		a, b := int(i%4), int(j%4)
		if a == b {
			return true
		}
		s := st.Strength([]int{a}, []int{b})
		return s > 0 && s <= 1
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestPredicateSelectivity(t *testing.T) {
	st := New(hierRelation(50000, 6), 1024, 7)
	pEq := query.NewEq("b", 3)
	got := st.PredicateSelectivity(&pEq)
	if math.Abs(got-1.0/7) > 0.02 {
		t.Errorf("sel(b=3) = %v, want ≈ 1/7", got)
	}
	pRange := query.NewRange("c", 0, 24)
	got = st.PredicateSelectivity(&pRange)
	if math.Abs(got-0.5) > 0.03 {
		t.Errorf("sel(0≤c≤24) = %v, want ≈ 0.5", got)
	}
	pIn := query.NewIn("b", 0, 1)
	got = st.PredicateSelectivity(&pIn)
	if math.Abs(got-2.0/7) > 0.03 {
		t.Errorf("sel(b in {0,1}) = %v, want ≈ 2/7", got)
	}
	pNone := query.NewEq("b", 99)
	if got = st.PredicateSelectivity(&pNone); got != 0 {
		t.Errorf("sel(b=99) = %v, want 0", got)
	}
}

func TestPropagationLowersDeterminedAttribute(t *testing.T) {
	st := New(hierRelation(50000, 9), 4096, 10)
	q := &query.Query{Name: "q", Fact: "t", Predicates: []query.Predicate{
		query.NewEq("a", 30), // determines b
	}}
	v := st.PropagatedVector(q)
	if v.Sel[1] > 0.25 {
		t.Errorf("propagated sel(b) = %v, want ≈ 1/7 (raw would be 1)", v.Sel[1])
	}
	// Independent attribute c must stay near 1: strength(c→a) ≈ 0.02 gives
	// a bound of sel(a)/0.02 ≈ 0.6 at best, and the minStrength guard and
	// min() keep it from dropping below reality.
	if v.Sel[2] < 0.2 {
		t.Errorf("propagated sel(c) = %v dropped implausibly", v.Sel[2])
	}
}

func TestPropagationMonotoneAndTerminates(t *testing.T) {
	st := New(hierRelation(20000, 10), 2048, 11)
	q := &query.Query{Name: "q", Fact: "t", Predicates: []query.Predicate{
		query.NewEq("a", 10), query.NewRange("c", 0, 9),
	}}
	raw := st.SelectivityVector(q)
	rawCopy := append([]float64(nil), raw.Sel...)
	prop := st.Propagate(raw)
	for i := range prop.Sel {
		if prop.Sel[i] > rawCopy[i]+1e-12 {
			t.Errorf("propagation increased sel[%d]: %v > %v", i, prop.Sel[i], rawCopy[i])
		}
		if prop.Sel[i] <= 0 {
			t.Errorf("propagation produced non-positive sel[%d] = %v", i, prop.Sel[i])
		}
	}
}

func TestPairSelectivityInVector(t *testing.T) {
	st := New(hierRelation(20000, 11), 2048, 12)
	q := &query.Query{Name: "q", Fact: "t", Predicates: []query.Predicate{
		query.NewEq("b", 3), query.NewEq("c", 7),
	}}
	v := st.SelectivityVector(q)
	if len(v.Pairs) != 1 {
		t.Fatalf("pairs = %d, want 1", len(v.Pairs))
	}
	for _, psel := range v.Pairs {
		want := (1.0 / 7) * (1.0 / 50)
		if psel > want*5 || psel < want/10 {
			t.Errorf("pair selectivity %v, want ≈ %v", psel, want)
		}
	}
}

func TestReservoirSampleSizeAndDeterminism(t *testing.T) {
	rel := hierRelation(10000, 12)
	st1 := New(rel, 512, 13)
	st2 := New(rel, 512, 13)
	if len(st1.Sample) != 512 {
		t.Errorf("sample size = %d", len(st1.Sample))
	}
	for i := range st1.Sample {
		if !slices.Equal(st1.Sample[i], st2.Sample[i]) {
			t.Fatal("same seed produced different samples")
		}
	}
	st3 := New(rel, 20000, 14)
	if len(st3.Sample) != 10000 {
		t.Errorf("oversized sample = %d, want all rows", len(st3.Sample))
	}
}

// TestHistogramFullInt64Range: ranges reaching MinInt64/MaxInt64 and
// columns spanning all of int64 are counted without wrapping, on exact and
// on bucketed histograms.
func TestHistogramFullInt64Range(t *testing.T) {
	for _, distinct := range []int{10, maxExactHistogram + 10} {
		col := []value.V{math.MaxInt64, math.MinInt64}
		for v := range distinct - 2 {
			col = append(col, value.V(v)-value.V(distinct/2))
		}
		vals, counts := value.Counts(col)
		h := buildHistogram(vals, counts, distinct)
		all := query.NewRange("x", math.MinInt64, math.MaxInt64)
		if got := h.Selectivity(&all); math.Abs(got-1) > 1e-9 {
			t.Errorf("%d distinct: sel(all of int64) = %v, want 1", distinct, got)
		}
		top := query.NewRange("x", math.MaxInt64-1, math.MaxInt64)
		if got := h.Selectivity(&top); got <= 0 || got > 1 {
			t.Errorf("%d distinct: sel(top of int64) = %v, want in (0, 1]", distinct, got)
		}
		empty := query.NewRange("x", 1, 0)
		if got := h.Selectivity(&empty); got != 0 {
			t.Errorf("%d distinct: sel(empty range) = %v, want 0", distinct, got)
		}
	}
}
