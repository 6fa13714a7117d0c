package stats

import (
	"math/bits"

	"coradd/internal/query"
	"coradd/internal/value"
)

// The summaries the cost models price on instead of scanning synopsis rows
// (DESIGN.md §2.14).

// Match is a query's footprint on the synopsis.
type Match struct {
	// Preds holds one bitmap per predicate, in declaration order: bit i is
	// set when sample row i satisfies the predicate. A predicate on a column
	// the schema lacks matches no row.
	Preds [][]uint64
	// All is the AND of Preds: the sample rows satisfying the whole query.
	All []uint64
	// Cols are the base positions of the columns the query reads
	// (query.AllColumns order), -1 where the schema lacks one.
	Cols []int
	n    int // sample rows
}

// MatchBits returns q's synopsis bitmaps and column positions, cached per
// query. Each predicate is compiled to query.CompiledPred's form and
// tested once over its sample column; callers must not mutate the result.
func (st *Stats) MatchBits(q *query.Query) *Match {
	return st.matchMem.get(q, func() *Match { return st.matchBits(q) })
}

func (st *Stats) matchBits(q *query.Query) *Match {
	n := len(st.Sample)
	words := (n + 63) / 64
	m := &Match{Preds: make([][]uint64, len(q.Predicates)), All: make([]uint64, words), n: n}
	for w := range m.All {
		m.All[w] = ^uint64(0)
	}
	maskTail(m.All, n)
	for i := range q.Predicates {
		b := make([]uint64, words)
		if c := st.Rel.Schema.Col(q.Predicates[i].Col); c >= 0 {
			cp := query.CompilePred(&q.Predicates[i], c)
			matchColumn(b, st.sampleCols[c], &cp)
			maskTail(b, n)
		}
		for w := range b {
			m.All[w] &= b[w]
		}
		m.Preds[i] = b
	}
	for _, name := range q.AllColumns() {
		m.Cols = append(m.Cols, st.Rel.Schema.Col(name))
	}
	return m
}

// matchColumn sets b's bit i when col[i] satisfies p, a word at a time over
// the column padded to a multiple of 64 rows.
func matchColumn(b []uint64, col []value.V, p *query.CompiledPred) {
	for w := range b {
		var x uint64
		for j, v := range (*[64]value.V)(col[w*64:]) {
			if p.Has(v) {
				x |= 1 << j
			}
		}
		b[w] = x
	}
}

// maskTail clears b's bits past the sample's n rows: a sample column's
// padding holds zeros, which a predicate may match.
func maskTail(b []uint64, n int) {
	if tail := n % 64; tail != 0 {
		b[len(b)-1] &= 1<<tail - 1
	}
}

// Fraction is the fraction of synopsis rows satisfying every one of preds
// (pointers into q.Predicates of the query m was built for, at least one),
// floored at half a row; 1 on an empty synopsis.
func (m *Match) Fraction(q *query.Query, preds ...*query.Predicate) float64 {
	r := m.n
	if r == 0 {
		return 1
	}
	var buf [8][]uint64
	sets := buf[:0]
	for _, p := range preds {
		i := 0
		for &q.Predicates[i] != p {
			i++
		}
		sets = append(sets, m.Preds[i])
	}
	n := 0
	for w, x := range sets[0] {
		for _, s := range sets[1:] {
			x &= s[w]
		}
		n += bits.OnesCount64(x)
	}
	f := float64(n) / float64(r)
	if floor := 0.5 / float64(r); f < floor {
		f = floor
	}
	return f
}

// SortedPerm returns the synopsis row positions in the order of the
// composite key: the stable sort on (key..., position). It is not cached
// itself; Ranks and SortedSample cache what they build from it.
func (st *Stats) SortedPerm(key []int) []int32 {
	return sortedPositions(st.sampleCols, key, len(st.Sample))
}

// Ranks is SortedPerm's inverse, cached per key: Ranks(key)[p] is sample
// row p's position in the key order. Callers must not mutate the result.
func (st *Stats) Ranks(key []int) []int32 {
	return memoize(st, st.rankMem, encodeCols(key), func() []int32 {
		rank := make([]int32, len(st.Sample))
		for i, p := range st.SortedPerm(key) {
			rank[p] = int32(i)
		}
		return rank
	})
}

// SortedSample returns the synopsis rows in SortedPerm(key) order, cached
// per key and shared (corridx's sample statistics read rows). Callers must
// not mutate the returned slice.
func (st *Stats) SortedSample(key []int) []value.Row {
	return memoize(st, st.sortedMem, encodeCols(key), func() []value.Row {
		perm := st.SortedPerm(key)
		s := make([]value.Row, len(perm))
		for i, p := range perm {
			s[i] = st.Sample[p]
		}
		return s
	})
}

// sortedPositions returns positions 0..n-1 stably sorted by cols[key...].
func sortedPositions(cols [][]value.V, key []int, n int) []int32 {
	perm := make([]int32, n)
	for i := range perm {
		perm[i] = int32(i)
	}
	keys := make([][]value.V, len(key))
	for i, c := range key {
		keys[i] = cols[c]
	}
	value.Sort(perm, keys...)
	return perm
}

// profile is the (d, f1, f2) frequency profile of the composite values of
// cols[key...] over rows 0..n-1: sorted on the key, equal values form runs.
func profile(cols [][]value.V, key []int, n int) sampleCounts {
	perm := sortedPositions(cols, key, n)
	var p RunProfile
	for i, r := range perm {
		p.Add(i == 0 || !sameKey(cols, key, perm[i-1], r))
	}
	return sampleCounts{d: p.D, f1: p.F1, f2: p.F2}
}

// sameKey reports whether rows a and b agree on every key column.
func sameKey(cols [][]value.V, key []int, a, b int32) bool {
	for _, c := range key {
		if cols[c][a] != cols[c][b] {
			return false
		}
	}
	return true
}
