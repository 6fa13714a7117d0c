package costmodel

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"coradd/internal/cm"
	"coradd/internal/query"
	"coradd/internal/schema"
	"coradd/internal/stats"
	"coradd/internal/storage"
	"coradd/internal/value"
)

// The row-scan pricing the synopsis summaries replaced, kept as the
// differential reference: coverage and pair selectivities test every
// sample row, the CM path walks the comparator-sorted sample with a
// bucket-frequency map, and composite distincts count encoded keys in a
// string map.

func refCompareRows(a, b value.Row, cols []int) int {
	for _, c := range cols {
		switch {
		case a[c] < b[c]:
			return -1
		case a[c] > b[c]:
			return 1
		}
	}
	return 0
}

func refSorted(st *stats.Stats, key []int) []value.Row {
	s := slices.Clone(st.Sample)
	slices.SortStableFunc(s, func(a, b value.Row) int { return refCompareRows(a, b, key) })
	return s
}

func refSampleFraction(st *stats.Stats, preds []*query.Predicate) float64 {
	sample := st.Sample
	if len(sample) == 0 {
		return 1
	}
	n := 0
	for _, row := range sample {
		ok := true
		for _, p := range preds {
			if !p.Matches(row[st.Rel.Schema.MustCol(p.Col)]) {
				ok = false
				break
			}
		}
		if ok {
			n++
		}
	}
	f := float64(n) / float64(len(sample))
	if floor := 0.5 / float64(len(sample)); f < floor {
		f = floor
	}
	return f
}

func refProfile(freq map[string]int) (d, f1, f2 int) {
	for _, n := range freq {
		switch n {
		case 1:
			f1++
		case 2:
			f2++
		}
	}
	return len(freq), f1, f2
}

func refCMCost(st *stats.Stats, d *MVDesign, q *query.Query, pages, height float64, disk storage.DiskParams) (float64, bool) {
	if len(q.Predicates) == 0 {
		return 0, false
	}
	sorted := refSorted(st, d.ClusterKey)
	r := len(sorted)
	if r == 0 {
		return 0, false
	}
	bucketPages := float64(cm.DefaultClusterPagesPerBucket)
	numBuckets := pages / bucketPages
	if numBuckets < 1 {
		numBuckets = 1
	}
	freq := make(map[string]int)
	matched := 0
	for i, row := range sorted {
		if !q.MatchesRow(row, st.Rel.Schema.Col) {
			continue
		}
		matched++
		freq[fmt.Sprint(int(float64(i)/float64(r)*numBuckets))]++
	}
	if matched == 0 {
		freq["0"] = 1
		matched = 1
	}
	sel := float64(matched) / float64(r)
	popMatched := sel * float64(st.NumRows())
	if popMatched < 1 {
		popMatched = 1
	}
	nb, f1, f2 := refProfile(freq)
	dBuckets := stats.EstimateDistinctRaw(nb, f1, f2, matched, int(popMatched))
	if dBuckets > numBuckets {
		dBuckets = numBuckets
	}
	coverage := dBuckets * bucketPages / pages
	if coverage > 1 {
		coverage = 1
	}
	seek, read := disk.SeekCost, disk.PageReadCost
	return seek + float64(cmReadPages)*read + dBuckets*height*seek + coverage*pages*read, true
}

// refEstimate is Aware.estimate over the row scans. The corridx path reads
// SortedSample, which the property test compares to refSorted directly.
func refEstimate(m *Aware, d *MVDesign, q *query.Query) (float64, PathKind) {
	for _, name := range q.AllColumns() {
		if c := m.St.Rel.Schema.Col(name); c < 0 || !d.HasCol(c) {
			return inf(), PathInfeasible
		}
	}
	pages, height := float64(d.NumPages(m.St)), float64(d.Height(m.St))
	seek, read := m.Disk.SeekCost, m.Disk.PageReadCost
	best, kind := seek+pages*read, PathSeqScan
	if len(d.ClusterKey) == 0 {
		return best, kind
	}
	if frags, used := prefixWalk(m.St, d, q); len(used) > 0 {
		if c := frags*height*seek + refSampleFraction(m.St, used)*pages*read; c < best {
			best, kind = c, PathClustered
		}
	}
	if len(d.CorrIdxs) > 0 {
		if c, ok := m.corrIdxCost(d, q, pages, height); ok && c < best {
			best, kind = c, PathCorrIdx
		}
	}
	if c, ok := refCMCost(m.St, d, q, pages, height, m.Disk); ok && c < best {
		best, kind = c, PathCM
	}
	return best, kind
}

func refDistinct(st *stats.Stats, exact bool, cols []int) float64 {
	freq := make(map[string]int)
	rows := st.Sample
	if exact {
		rows = make([]value.Row, st.NumRows())
		for i := range rows {
			rows[i] = st.Rel.Row(i)
		}
	}
	for _, row := range rows {
		k := ""
		for _, c := range cols {
			k += fmt.Sprint(row[c], ",")
		}
		freq[k]++
	}
	if exact {
		return float64(len(freq))
	}
	nb, f1, f2 := refProfile(freq)
	return math.Max(stats.EstimateDistinctRaw(nb, f1, f2, len(st.Sample), st.NumRows()), maxDistinct(st, cols))
}

func maxDistinct(st *stats.Stats, cols []int) float64 {
	m := 0.0
	for _, c := range cols {
		m = math.Max(m, st.Distinct(c))
	}
	return m
}

func refPairs(st *stats.Stats, q *query.Query) map[[2]int]float64 {
	out := make(map[[2]int]float64)
	var cols []int
	for i := range q.Predicates {
		cols = append(cols, st.Rel.Schema.MustCol(q.Predicates[i].Col))
	}
	for i := range cols {
		for j := i + 1; j < len(cols); j++ {
			a, b := min(cols[i], cols[j]), max(cols[i], cols[j])
			pa := q.Predicate(st.Rel.Schema.Columns[a].Name)
			pb := q.Predicate(st.Rel.Schema.Columns[b].Name)
			out[[2]int{a, b}] = refSampleFraction(st, []*query.Predicate{pa, pb})
		}
	}
	return out
}

var synCols = []string{"a", "b", "c", "d", "e"}

// synopsisCase draws a relation whose synopsis holds sampleSize rows, with
// columns of small, correlated, wide and extreme domains (the zero padding
// past the sample matches many of them), plus designs and queries over it.
func synopsisCase(seed int64, sampleSize int) (*stats.Stats, *stats.Stats, []*MVDesign, []*query.Query) {
	rng := rand.New(rand.NewSource(seed))
	cols := make([]schema.Column, len(synCols))
	for i, n := range synCols {
		cols[i] = schema.Column{Name: n, ByteSize: 4 + 4*rng.Intn(2)}
	}
	s := schema.New(cols...)
	n := 0
	if sampleSize > 0 {
		n = sampleSize + rng.Intn(2*sampleSize+1)
	}
	extremes := []value.V{math.MinInt64, math.MaxInt64, 0, -1, 1}
	gen := func(c int, a value.V) value.V {
		switch c {
		case 0:
			return value.V(rng.Intn(1 + rng.Intn(40)))
		case 1:
			return a / 7 // determined by a
		case 2:
			return extremes[rng.Intn(len(extremes))]
		case 3:
			return rng.Int63() - rng.Int63()
		default:
			return value.V(rng.Intn(5)) - 2
		}
	}
	rows := make([]value.Row, n)
	for i := range rows {
		row := make(value.Row, len(synCols))
		for c := range row {
			row[c] = gen(c, row[0])
		}
		rows[i] = row
	}
	rel := storage.NewRelation("t", s, []int{rng.Intn(len(synCols))}, rows)
	synSeed := rng.Int63()
	st := stats.New(rel, max(sampleSize, 1), synSeed)
	exact := stats.New(rel, max(sampleSize, 1), synSeed)
	exact.Exact = true

	literal := func(c int) value.V {
		if n > 0 && rng.Intn(4) > 0 {
			return rel.Cols[c][rng.Intn(n)]
		}
		return extremes[rng.Intn(len(extremes))]
	}
	var queries []*query.Query
	for qi := 0; qi < 10; qi++ {
		q := &query.Query{Name: fmt.Sprint("q", qi), Fact: "t", AggCol: synCols[rng.Intn(len(synCols))]}
		np := 1 + rng.Intn(3)
		if qi == 0 {
			np = 0
		}
		for range np {
			c := rng.Intn(len(synCols))
			if len(q.Predicates) > 0 && rng.Intn(4) == 0 {
				c = s.MustCol(q.Predicates[0].Col) // two predicates on one column
			}
			var p query.Predicate
			switch rng.Intn(5) {
			case 0:
				p = query.NewEq(synCols[c], literal(c))
			case 1:
				lo, hi := literal(c), literal(c)
				if rng.Intn(5) > 0 && lo > hi {
					lo, hi = hi, lo
				}
				p = query.NewRange(synCols[c], lo, hi)
			case 2:
				p = query.NewRange(synCols[c], math.MinInt64, math.MaxInt64) // every row
			default:
				vs := make([]value.V, 1+rng.Intn(6))
				for i := range vs {
					vs[i] = literal(c)
				}
				p = query.NewIn(synCols[c], vs...)
			}
			q.Predicates = append(q.Predicates, p)
		}
		if rng.Intn(3) == 0 {
			q.Targets = []string{synCols[rng.Intn(len(synCols))]}
		}
		queries = append(queries, q)
	}
	var designs []*MVDesign
	for di := 0; di < 8; di++ {
		perm := rng.Perm(len(synCols))
		d := &MVDesign{Name: fmt.Sprint("d", di), ClusterKey: perm[:1+rng.Intn(3)]}
		d.Cols = slices.Clone(perm[:len(d.ClusterKey)+rng.Intn(len(synCols)-len(d.ClusterKey)+1)])
		if rng.Intn(3) > 0 {
			d.Cols = []int{0, 1, 2, 3, 4}
		}
		sort.Ints(d.Cols)
		if rng.Intn(3) == 0 {
			d.CorrIdxs = []CorrIdxSpec{{Target: rng.Intn(len(synCols)), Width: 1 << rng.Intn(4),
				EstEntries: 1 + rng.Intn(100), EstOutlierFrac: rng.Float64() * 0.1}}
		}
		designs = append(designs, d)
	}
	return st, exact, designs, queries
}

// checkSynopsisCase compares every (design, query) estimate, sorted
// sample, pair selectivity and composite distinct count with the row-scan
// reference, bit for bit.
func checkSynopsisCase(t *testing.T, seed int64, sampleSize int) {
	t.Helper()
	st, exact, designs, queries := synopsisCase(seed, sampleSize)
	disk := storage.DefaultDiskParams()
	m, ref := NewAware(st, disk), NewAware(st, disk)
	for _, d := range designs {
		if got, want := st.SortedSample(d.ClusterKey), refSorted(st, d.ClusterKey); !slices.EqualFunc(got, want, slices.Equal) {
			t.Fatalf("seed %d size %d: SortedSample(%v) differs from the stable comparator sort", seed, sampleSize, d.ClusterKey)
		}
		for _, q := range queries {
			gotC, gotK := m.Estimate(d, q)
			wantC, wantK := refEstimate(ref, d, q)
			if math.Float64bits(gotC) != math.Float64bits(wantC) || gotK != wantK {
				t.Fatalf("seed %d size %d: %v on %v priced %v (%v), row scan %v (%v)",
					seed, sampleSize, q, d, gotC, gotK, wantC, wantK)
			}
		}
	}
	for _, q := range queries {
		got, want := st.SelectivityVector(q).Pairs, refPairs(st, q)
		if len(got) != len(want) {
			t.Fatalf("seed %d size %d: %v has %d pairs, row scan %d", seed, sampleSize, q, len(got), len(want))
		}
		for k, w := range want {
			if math.Float64bits(got[k]) != math.Float64bits(w) {
				t.Fatalf("seed %d size %d: %v pair %v selectivity %v, row scan %v", seed, sampleSize, q, k, got[k], w)
			}
		}
	}
	for _, cols := range [][]int{{0, 1}, {0, 2}, {2, 3}, {1, 3, 4}, {0, 2, 4}} {
		for _, s := range []*stats.Stats{st, exact} {
			if got, want := s.Distinct(cols...), refDistinct(s, s.Exact, cols); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("seed %d size %d: Distinct%v (exact %v) = %v, map count %v", seed, sampleSize, cols, s.Exact, got, want)
			}
		}
	}
}

// TestSynopsisPricingMatchesRowScan: pricing on the match bitmaps and rank
// permutations reproduces the row scans exactly, at sample sizes around
// the 64-row word boundary and up to 3 000 rows.
func TestSynopsisPricingMatchesRowScan(t *testing.T) {
	for _, size := range []int{0, 1, 2, 63, 64, 65, 127, 128, 129, 500, 1024, 3000} {
		for seed := int64(1); seed <= 4; seed++ {
			checkSynopsisCase(t, seed*1000+int64(size), size)
		}
	}
}

// FuzzSynopsisEstimate drives the same comparison from arbitrary seeds and
// sample sizes:
//
//	go test -run '^$' -fuzz FuzzSynopsisEstimate -fuzztime 20s ./internal/costmodel/
func FuzzSynopsisEstimate(f *testing.F) {
	for _, size := range []uint16{0, 1, 63, 64, 65, 3000} {
		f.Add(int64(size), size)
	}
	f.Fuzz(func(t *testing.T, seed int64, size uint16) {
		checkSynopsisCase(t, seed, int(size%3001))
	})
}
