package stats

import (
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"testing"

	"coradd/internal/apb"
	"coradd/internal/query"
	"coradd/internal/schema"
	"coradd/internal/ssb"
	"coradd/internal/storage"
	"coradd/internal/value"
)

// referenceHistogram is the histogram New built before value.Counts: exact
// per-value frequencies in a map up to maxExactHistogram distinct values,
// the same equi-width buckets above.
type referenceHistogram struct {
	totalRows int
	exact     map[value.V]int
	min, max  value.V
	width     value.V
	buckets   []int
}

// referenceColumnStats is the hash-count scan: one map per column, its
// size the column's exact cardinality.
func referenceColumnStats(rel *storage.Relation) ([]float64, []*referenceHistogram) {
	distinct := make([]float64, len(rel.Cols))
	hists := make([]*referenceHistogram, len(rel.Cols))
	for c, col := range rel.Cols {
		set := make(map[value.V]int)
		for _, v := range col {
			set[v]++
		}
		distinct[c] = float64(len(set))
		hists[c] = referenceBuildHistogram(set, rel.NumRows())
	}
	return distinct, hists
}

func referenceBuildHistogram(freq map[value.V]int, totalRows int) *referenceHistogram {
	h := &referenceHistogram{totalRows: totalRows}
	if len(freq) <= maxExactHistogram {
		h.exact = freq
		return h
	}
	first := true
	for v := range freq {
		if first {
			h.min, h.max = v, v
			first = false
			continue
		}
		h.min, h.max = min(h.min, v), max(h.max, v)
	}
	nb := 1024
	h.buckets = make([]int, nb)
	h.width = value.V((uint64(h.max)-uint64(h.min))/uint64(nb) + 1)
	for v, n := range freq {
		h.buckets[(uint64(v)-uint64(h.min))/uint64(h.width)] += n
	}
	return h
}

func (h *referenceHistogram) Selectivity(p *query.Predicate) float64 {
	if h.totalRows == 0 {
		return 0
	}
	switch p.Op {
	case query.Eq:
		return h.rangeCount(p.Lo, p.Lo) / float64(h.totalRows)
	case query.Range:
		return h.rangeCount(p.Lo, p.Hi) / float64(h.totalRows)
	case query.In:
		n := 0.0
		for _, v := range p.Set {
			n += h.rangeCount(v, v)
		}
		return n / float64(h.totalRows)
	default:
		return 1
	}
}

func (h *referenceHistogram) rangeCount(lo, hi value.V) float64 {
	if lo > hi {
		return 0
	}
	if h.exact != nil {
		if uint64(hi)-uint64(lo) < uint64(len(h.exact)) {
			n := 0
			for v := lo; ; v++ {
				n += h.exact[v]
				if v == hi {
					break
				}
			}
			return float64(n)
		}
		n := 0
		for v, c := range h.exact {
			if v >= lo && v <= hi {
				n += c
			}
		}
		return float64(n)
	}
	if hi < h.min || lo > h.max {
		return 0
	}
	lo, hi = max(lo, h.min), min(hi, h.max)
	oLo, oHi, w := uint64(lo)-uint64(h.min), uint64(hi)-uint64(h.min), uint64(h.width)
	n := 0.0
	for b := oLo / w; b <= oHi/w && b < uint64(len(h.buckets)); b++ {
		cnt := float64(h.buckets[b])
		bucketLo := b * w
		bucketHi := bucketLo + w - 1
		if bucketHi < bucketLo {
			bucketHi = math.MaxUint64
		}
		cover := 1.0
		if oLo > bucketLo || oHi < bucketHi {
			cover = float64(min(oHi, bucketHi)-max(oLo, bucketLo)+1) / float64(w)
		}
		n += cnt * cover
	}
	return n
}

// probePoints returns values to build predicates from for one column: up
// to 200 of its distinct values, their neighbours, and the int64 ends.
func probePoints(rng *rand.Rand, col []value.V) []value.V {
	pts := []value.V{math.MinInt64, math.MinInt64 + 1, -1, 0, 1, math.MaxInt64 - 1, math.MaxInt64}
	if len(col) == 0 {
		return pts
	}
	for range 200 {
		v := col[rng.Intn(len(col))]
		pts = append(pts, v, v-1, v+1) // wraps at the ends, which is fine
	}
	lo, hi := slices.Min(col), slices.Max(col)
	return append(pts, lo, lo-1, hi, hi+1, lo+(hi-lo)/2)
}

// checkColumnStats compares New's cardinalities and histograms for rel
// with the hash-count reference: equal cardinalities, and bit-equal
// selectivities for Eq on every probe point, Range over random probe pairs
// (reversed pairs included, so empty ranges too) and all of int64, and IN
// over random probe sets.
func checkColumnStats(t *testing.T, rel *storage.Relation) {
	t.Helper()
	st := New(rel, 256, 1)
	wantD, wantH := referenceColumnStats(rel)
	if !slices.Equal(st.colDistinct, wantD) {
		t.Fatalf("%s: column distincts %v, want %v", rel.Name, st.colDistinct, wantD)
	}
	rng := rand.New(rand.NewSource(int64(len(rel.Cols))))
	for c, col := range rel.Cols {
		name := rel.Schema.Columns[c].Name
		pts := probePoints(rng, col)
		preds := []query.Predicate{query.NewRange(name, math.MinInt64, math.MaxInt64)}
		for _, v := range pts {
			preds = append(preds, query.NewEq(name, v))
		}
		for range 300 {
			preds = append(preds, query.NewRange(name, pts[rng.Intn(len(pts))], pts[rng.Intn(len(pts))]))
		}
		for range 100 {
			set := make([]value.V, 1+rng.Intn(6))
			for k := range set {
				set[k] = pts[rng.Intn(len(pts))]
			}
			preds = append(preds, query.NewIn(name, set...))
		}
		for i := range preds {
			p := &preds[i]
			got, want := st.hists[c].Selectivity(p), wantH[c].Selectivity(p)
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("%s.%s: %v [%d, %d] %v: selectivity %v, want %v", rel.Name, name, p.Op, p.Lo, p.Hi, p.Set, got, want)
			}
		}
	}
}

// ssbRelation generates lineorder with the dimension sizes the scenario
// environments give rows rows.
func ssbRelation(rows int) *storage.Relation {
	return ssb.Generate(ssb.Config{Rows: rows, Customers: max(1000, rows/30),
		Suppliers: max(200, rows/400), Parts: max(1000, rows/40), Seed: 42})
}

// denseColumn reports whether value.Counts takes the counting path on col.
func denseColumn(col []value.V) bool {
	_, dense := value.DenseCode(make([]int32, len(col)), nil, col)
	return dense
}

// TestColumnStatsMatchReference runs the differential check on SSB at 20k
// and 60k rows and on APB-1's two relations. At 20k rows some SSB columns
// span past the dense bound, so real data take the sort path too.
func TestColumnStatsMatchReference(t *testing.T) {
	rels := []*storage.Relation{ssbRelation(20_000), ssbRelation(60_000),
		apb.Generate(apb.Config{Rows: 20_000, Seed: 9}), apb.GenerateBudget(apb.Config{Rows: 20_000, Seed: 9})}
	paths := map[bool]int{}
	for _, col := range rels[0].Cols {
		paths[denseColumn(col)]++
	}
	if paths[true] == 0 || paths[false] == 0 {
		t.Fatalf("SSB at 20k rows: %d columns counted densely, %d sorted; want both paths", paths[true], paths[false])
	}
	for _, rel := range rels {
		checkColumnStats(t, rel)
	}
}

// oneColumn builds a one-column relation over vals.
func oneColumn(name string, vals []value.V) *storage.Relation {
	s := schema.New(schema.Column{Name: "x", ByteSize: 8})
	rows := make([]value.Row, len(vals))
	for i, v := range vals {
		rows[i] = value.Row{v}
	}
	return storage.NewRelation(name, s, nil, rows)
}

// TestColumnStatsAdversarial runs the differential check on columns at the
// edges of both counting paths and of the exact histogram.
func TestColumnStatsAdversarial(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	const n = 1000
	bound := 4*n + 1024 // value's dense bound for n rows
	spanCol := func(span int) []value.V {
		col := make([]value.V, n)
		base := value.V(-1 << 40)
		for i := range col {
			col[i] = base + value.V(rng.Intn(span))
		}
		col[0], col[n-1] = base, base+value.V(span-1)
		return col
	}
	distinctCol := func(d int, step value.V) []value.V {
		col := make([]value.V, 3*d)
		for i := range col {
			col[i] = value.V(i%d) * step
		}
		return col
	}
	random := func(lo, span value.V) []value.V {
		col := make([]value.V, n)
		for i := range col {
			col[i] = lo + value.V(rng.Int63n(int64(span)))
		}
		return col
	}
	full := make([]value.V, n)
	for i := range full {
		full[i] = value.V(rng.Uint64())
	}
	full[10], full[20], full[30] = math.MinInt64, math.MaxInt64, math.MinInt64
	cases := []struct {
		name  string
		col   []value.V
		dense bool
	}{
		{"empty", nil, true},
		{"one row", []value.V{-42}, true},
		{"all equal", slices.Repeat([]value.V{7}, n), true},
		{"negatives", random(-5000, 5000), true},
		{"wide negatives", random(-1<<40, 1<<40-1), false},
		{"full int64 range", full, false},
		{"at the dense bound", spanCol(bound), true},
		{"one past the dense bound", spanCol(bound + 1), false},
		{"4096 distinct", distinctCol(maxExactHistogram, 1), true},
		{"4097 distinct", distinctCol(maxExactHistogram+1, 1), true},
		{"4096 distinct, spread", distinctCol(maxExactHistogram, 977), false},
		{"4097 distinct, spread", distinctCol(maxExactHistogram+1, 977), false},
	}
	for _, c := range cases {
		if got := denseColumn(c.col); got != c.dense {
			t.Fatalf("%s: counting path %v, want %v", c.name, got, c.dense)
		}
		checkColumnStats(t, oneColumn(c.name, c.col))
	}
}

// TestStatsNewWidthIndependent computes one relation's statistics at
// GOMAXPROCS 1 and 4: the fan-out's width must not change the
// cardinalities, the histograms or the synopsis.
func TestStatsNewWidthIndependent(t *testing.T) {
	rel := ssbRelation(20_000)
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	var sts [2]*Stats
	for i, procs := range []int{1, 4} {
		runtime.GOMAXPROCS(procs)
		sts[i] = New(rel, 1024, 5)
	}
	a, b := sts[0], sts[1]
	for _, f := range []struct {
		name string
		x, y any
	}{
		{"distincts", a.colDistinct, b.colDistinct},
		{"histograms", a.hists, b.hists},
		{"sample", a.Sample, b.Sample},
		{"sample columns", a.sampleCols, b.sampleCols},
	} {
		if !reflect.DeepEqual(f.x, f.y) {
			t.Errorf("%s differ between GOMAXPROCS 1 and 4", f.name)
		}
	}
}
