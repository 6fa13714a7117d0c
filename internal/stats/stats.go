package stats

import (
	"math/rand"
	"slices"
	"sort"
	"sync"

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

	colDistinct []float64 // exact single-column cardinalities
	hists       []*Histogram

	// mu guards the lazily-built memo maps below; everything above is
	// immutable after New, so reads need no lock. Designers price candidates
	// from several goroutines at once.
	mu          sync.Mutex
	distinctMem map[string]float64 // memoized composite cardinalities
	compiledMem query.CompileCache // bindings on the base schema
	sortedMem   map[string][]value.Row
	propMem     sync.Map // *query.Query → Vector (cached masters; clone on read)
}

// SortedSample returns the synopsis sorted by the composite key, cached per
// key and shared by every consumer (the correlation-aware cost model sorts
// the synopsis for each candidate clustered key — the same keys recur
// across designers and model instances). Callers must not mutate the
// returned slice.
func (st *Stats) SortedSample(key []int) []value.Row {
	ks := encodeCols(key)
	st.mu.Lock()
	if s, ok := st.sortedMem[ks]; ok {
		st.mu.Unlock()
		return s
	}
	st.mu.Unlock()
	s := make([]value.Row, len(st.Sample))
	copy(s, st.Sample)
	slices.SortStableFunc(s, func(a, b value.Row) int { return value.CompareRows(a, b, key) })
	st.mu.Lock()
	if st.sortedMem == nil {
		st.sortedMem = make(map[string][]value.Row)
	}
	st.sortedMem[ks] = s
	st.mu.Unlock()
	return s
}

// Compiled returns q bound to the relation's schema, compiled once per
// query and shared: the synopsis-matching loops of the cost models and the
// statistics run on position-bound predicates instead of per-row name
// lookups.
func (st *Stats) Compiled(q *query.Query) *query.Compiled {
	return st.compiledMem.Get(q, st.Rel.Schema.Col)
}

// New scans rel once, building cardinalities, histograms and a synopsis of
// sampleSize rows drawn with a deterministic seed.
func New(rel *storage.Relation, sampleSize int, seed int64) *Stats {
	if sampleSize <= 0 {
		sampleSize = DefaultSampleSize
	}
	st := &Stats{Rel: rel, distinctMem: make(map[string]float64)}
	// Exact single-attribute cardinalities + histograms in one pass.
	ncols := len(rel.Schema.Columns)
	sets := make([]map[value.V]int, ncols)
	for c := range sets {
		sets[c] = make(map[value.V]int)
	}
	for _, row := range rel.Rows {
		for c := 0; c < ncols; c++ {
			sets[c][row[c]]++
		}
	}
	st.colDistinct = make([]float64, ncols)
	st.hists = make([]*Histogram, ncols)
	for c := 0; c < ncols; c++ {
		st.colDistinct[c] = float64(len(sets[c]))
		st.hists[c] = buildHistogram(sets[c], len(rel.Rows))
	}
	// Reservoir-sample the synopsis.
	rng := rand.New(rand.NewSource(seed))
	if sampleSize > len(rel.Rows) {
		sampleSize = len(rel.Rows)
	}
	st.Sample = make([]value.Row, 0, sampleSize)
	for i, row := range rel.Rows {
		if len(st.Sample) < sampleSize {
			st.Sample = append(st.Sample, row)
			continue
		}
		if j := rng.Intn(i + 1); j < sampleSize {
			st.Sample[j] = row
		}
	}
	return st
}

// NumRows is the relation's tuple count.
func (st *Stats) NumRows() int { return len(st.Rel.Rows) }

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
	key := encodeCols(sorted)
	st.mu.Lock()
	if d, ok := st.distinctMem[key]; ok {
		st.mu.Unlock()
		return d
	}
	st.mu.Unlock()
	var d float64
	if st.Exact {
		seen := make(map[string]struct{})
		var buf []byte
		for _, row := range st.Rel.Rows {
			buf = encodeRowKey(buf[:0], row, sorted)
			seen[string(buf)] = struct{}{}
		}
		d = float64(len(seen))
	} else {
		freq := make(map[string]int)
		var buf []byte
		for _, row := range st.Sample {
			buf = encodeRowKey(buf[:0], row, sorted)
			freq[string(buf)]++
		}
		d = EstimateDistinct(countFrequencies(freq), len(st.Sample), st.NumRows())
		// A composite can never have fewer distincts than its widest column.
		for _, c := range sorted {
			if st.colDistinct[c] > d {
				d = st.colDistinct[c]
			}
		}
	}
	st.mu.Lock()
	st.distinctMem[key] = d
	st.mu.Unlock()
	return d
}

func encodeRowKey(buf []byte, row value.Row, cols []int) []byte {
	for _, c := range cols {
		v := row[c]
		for s := 0; s < 64; s += 8 {
			buf = append(buf, byte(v>>s))
		}
	}
	return buf
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
