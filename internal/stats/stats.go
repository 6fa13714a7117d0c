package stats

import (
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"

	"coradd/internal/par"
	"coradd/internal/query"
	"coradd/internal/storage"
	"coradd/internal/value"
)

// DefaultSampleSize is the synopsis size kept per relation.
const DefaultSampleSize = 4096

// Stats holds the once-per-startup statistics the paper's designer collects
// by scanning each relation (A-2.2): exact single-attribute cardinalities,
// per-column histograms for predicate selectivities, and a random synopsis
// for on-the-fly composite-cardinality and fragment estimation.
type Stats struct {
	Rel *storage.Relation
	// Sample is a uniform random synopsis of the relation's rows.
	Sample []value.Row

	// Exact forces composite distinct counts to be computed exactly from
	// the full relation instead of estimated from the synopsis. Used by
	// tests and the OPT baseline.
	Exact bool

	// sampleCols is the synopsis column-major, each column padded with
	// zeros to a multiple of 64 rows for the word-at-a-time match bitmaps.
	sampleCols  [][]value.V
	colDistinct []float64 // exact single-column cardinalities
	hists       []*Histogram

	// mu guards the lazily-built memo maps below; everything above is
	// immutable after New, so reads need no lock. Designers price candidates
	// from several goroutines at once.
	mu          sync.Mutex
	distinctMem map[string]float64 // memoized composite cardinalities
	rankMem     map[string][]int32 // Ranks, per clustered key
	sortedMem   map[string][]value.Row
	matchMem    queryMemo[*Match]
	propMem     queryMemo[Vector] // cached masters; clone on read
}

// New scans rel once, building cardinalities, histograms and a synopsis of
// sampleSize rows drawn with a deterministic seed.
func New(rel *storage.Relation, sampleSize int, seed int64) *Stats {
	if sampleSize <= 0 {
		sampleSize = DefaultSampleSize
	}
	st := &Stats{Rel: rel, distinctMem: make(map[string]float64),
		rankMem: make(map[string][]int32), sortedMem: make(map[string][]value.Row)}
	// One fan-out: index 0 reservoir-samples the synopsis's row positions
	// on its own RNG stream, and index c+1 counts column c for its exact
	// cardinality and histogram.
	n := rel.NumRows()
	st.colDistinct = make([]float64, len(rel.Cols))
	st.hists = make([]*Histogram, len(rel.Cols))
	sampleSize = min(sampleSize, n)
	picks := make([]int, 0, sampleSize)
	par.ForEach(len(rel.Cols)+1, func(idx int) {
		if c := idx - 1; c >= 0 {
			vals, counts := value.Counts(rel.Cols[c])
			st.colDistinct[c] = float64(len(vals))
			st.hists[c] = buildHistogram(vals, counts, n)
			return
		}
		rng := rand.New(rand.NewSource(seed))
		for i := range n {
			if len(picks) < sampleSize {
				picks = append(picks, i)
				continue
			}
			if j := rng.Intn(i + 1); j < sampleSize {
				picks[j] = i
			}
		}
	})
	// Gather the picked rows out of the columns, keeping both layouts; the
	// rows are slices of one backing array.
	nc := len(rel.Cols)
	st.sampleCols = make([][]value.V, nc)
	flat := make([]value.V, len(picks)*nc)
	for c, col := range rel.Cols {
		sc := make([]value.V, (len(picks)+63)/64*64)
		for k, i := range picks {
			sc[k] = col[i]
			flat[k*nc+c] = col[i]
		}
		st.sampleCols[c] = sc
	}
	st.Sample = make([]value.Row, len(picks))
	for k := range picks {
		st.Sample[k] = flat[k*nc : (k+1)*nc : (k+1)*nc]
	}
	return st
}

// NumRows is the relation's tuple count.
func (st *Stats) NumRows() int { return st.Rel.NumRows() }

// memoize returns m[k], building it on a miss. st.mu guards m; concurrent
// misses may build twice, which is safe because builds are deterministic.
func memoize[T any](st *Stats, m map[string]T, k string, build func() T) T {
	st.mu.Lock()
	v, ok := m[k]
	st.mu.Unlock()
	if !ok {
		v = build()
		st.mu.Lock()
		m[k] = v
		st.mu.Unlock()
	}
	return v
}

// queryMemoLimit bounds each per-query cache. Callers price fresh query
// pointers over one Stats for as long as it lives (a monitor snapshot
// copies its representatives), so a cache that kept every pointer would
// grow without end; on reaching the limit it is dropped and refills with
// what is priced next, the policy of workload's fingerprint memo.
const queryMemoLimit = 8192

// queryMemo caches one value per *query.Query, lock-free on a hit and
// bounded by queryMemoLimit. Concurrent misses may build twice, which is
// safe because builds are deterministic. The zero value is ready.
type queryMemo[T any] struct {
	m sync.Map // *query.Query → T
	n atomic.Int64
}

func (c *queryMemo[T]) get(q *query.Query, build func() T) T {
	if v, ok := c.m.Load(q); ok {
		return v.(T)
	}
	v := build()
	if c.n.Add(1) > queryMemoLimit {
		c.m.Clear()
		c.n.Store(1)
	}
	c.m.Store(q, v)
	return v
}

// encode builds a map key for a composite column set.
func encodeCols(cols []int) string {
	b := make([]byte, 0, len(cols)*2)
	for _, c := range cols {
		b = append(b, byte(c), byte(c>>8))
	}
	return string(b)
}

// Distinct estimates the number of distinct composite values over cols.
// Single columns are exact; composites are estimated from the synopsis via
// EstimateDistinct unless Exact is set.
func (st *Stats) Distinct(cols ...int) float64 {
	if len(cols) == 0 {
		return 1
	}
	if len(cols) == 1 {
		return st.colDistinct[cols[0]]
	}
	sorted := append([]int(nil), cols...)
	sort.Ints(sorted)
	return memoize(st, st.distinctMem, encodeCols(sorted), func() float64 {
		if st.Exact {
			return float64(profile(st.Rel.Cols, sorted, st.NumRows()).d)
		}
		d := EstimateDistinct(profile(st.sampleCols, sorted, len(st.Sample)), len(st.Sample), st.NumRows())
		// A composite can never have fewer distincts than its widest column.
		for _, c := range sorted {
			d = max(d, st.colDistinct[c])
		}
		return d
	})
}

// Strength is the CORDS correlation strength of the soft functional
// dependency from → to:
//
//	strength(C1 → C2) = |C1| / |C1C2|
//
// (1 means C1 perfectly determines C2). from and to are column sets.
func (st *Stats) Strength(from, to []int) float64 {
	num := st.Distinct(from...)
	joint := st.Distinct(append(append([]int(nil), from...), to...)...)
	if joint <= 0 {
		return 1
	}
	s := num / joint
	if s > 1 {
		s = 1
	}
	return s
}

// PredicateSelectivity estimates the fraction of rows satisfying p from the
// column's histogram.
func (st *Stats) PredicateSelectivity(p *query.Predicate) float64 {
	c := st.Rel.Schema.Col(p.Col)
	if c < 0 {
		return 1
	}
	return st.hists[c].Selectivity(p)
}

// QuerySelectivityIndependent multiplies per-predicate selectivities,
// assuming independence — the correlation-oblivious estimate a conventional
// optimizer makes.
func (st *Stats) QuerySelectivityIndependent(q *query.Query) float64 {
	sel := 1.0
	for i := range q.Predicates {
		sel *= st.PredicateSelectivity(&q.Predicates[i])
	}
	return sel
}
