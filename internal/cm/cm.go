// Package cm implements Correlation Maps (Kimura et al., VLDB 2009; paper
// Appendix A-1): compressed secondary indexes that map each distinct value
// (or bucket) of an unclustered attribute to the set of clustered-key
// buckets it co-occurs with. When the unclustered attribute is correlated
// with the clustered key, the map is tiny and a lookup yields only a few
// contiguous heap ranges.
package cm

import (
	"math"
	"slices"

	"coradd/internal/query"
	"coradd/internal/storage"
	"coradd/internal/value"
)

// DefaultClusterPagesPerBucket is the fixed clustered-bucket width: all
// heap pages in one bucket are scanned together. The paper's A-1.2 uses a
// "reasonable fixed-width scheme (e.g., 20 pages per bucket ID)".
const DefaultClusterPagesPerBucket = 20

// entryOverhead models per-pair storage overhead in bytes (bucket id +
// slot bookkeeping).
const entryOverhead = 8

// CM is a correlation map over one relation.
type CM struct {
	// KeyCols are the unclustered attribute positions forming the CM key.
	KeyCols []int
	// KeyWidths give the bucket width per key column; width 1 stores exact
	// values, width w truncates values to floor(v/w) buckets (A-1.1).
	KeyWidths []value.V
	// ClusterPagesPerBucket is the clustered bucket width in heap pages.
	ClusterPagesPerBucket int

	keyBytes int
	numPages int // heap pages of the indexed relation at build time
	// keys and buckets are the distinct (bucketed key, clustered bucket)
	// co-occurrences sorted by key then bucket: pair i is
	// keys[i*len(KeyCols):(i+1)*len(KeyCols)] with buckets[i].
	keys    []value.V
	buckets []int32
}

// Build constructs the CM for rel over keyCols with the given bucket
// widths (len(keyWidths) == len(keyCols); width ≥ 1).
func Build(rel *storage.Relation, keyCols []int, keyWidths []value.V, clusterPagesPerBucket int) *CM {
	return new(pairKernel).build(rel, keyCols, keyWidths, clusterPagesPerBucket)
}

func (pk *pairKernel) build(rel *storage.Relation, keyCols []int, keyWidths []value.V, clusterPagesPerBucket int) *CM {
	if clusterPagesPerBucket < 1 {
		clusterPagesPerBucket = DefaultClusterPagesPerBucket
	}
	m := &CM{
		KeyCols:               keyCols,
		KeyWidths:             keyWidths,
		ClusterPagesPerBucket: clusterPagesPerBucket,
		keyBytes:              rel.Schema.SubsetBytes(keyCols),
		numPages:              rel.NumPages(),
	}
	// The items are the rows in clustered order; run b is clustered bucket
	// b, a fixed number of rows. An exact key column is read in place.
	n := rel.NumRows()
	cols := make([][]value.V, len(keyCols))
	for j, c := range keyCols {
		if keyWidths[j] <= 1 {
			cols[j] = rel.Cols[c]
			continue
		}
		cols[j] = pk.column(j, n)
		for i, v := range rel.Cols[c] {
			cols[j][i] = BucketValue(v, keyWidths[j])
		}
	}
	rowsPerBucket := rel.TuplesPerPage() * clusterPagesPerBucket
	starts := pk.starts[:0]
	for lo := 0; lo < n; lo += rowsPerBucket {
		starts = append(starts, lo)
	}
	pk.starts = append(starts, n)
	m.keys, m.buckets = pk.distinct(cols, pk.starts)
	return m
}

// Derive builds the CM for coarser bucket widths from an exact (all widths
// 1) base CM without rescanning the relation: re-bucketing the base's
// distinct (value, clustered-bucket) pairs yields exactly the pair set a
// fresh Build over the rows would produce, because BucketValue(v, w) =
// BucketValue(BucketValue(v, 1), w) and deduplication commutes with the
// projection. The base typically holds orders of magnitude fewer pairs than
// the relation has rows, which is what makes the CM Designer's width sweep
// cheap.
func Derive(base *CM, widths []value.V) *CM {
	for _, w := range base.KeyWidths {
		if w != 1 {
			panic("cm: Derive requires an exact (width-1) base")
		}
	}
	return new(pairKernel).derive(base, identity(len(base.KeyCols)), widths, base.keyBytes)
}

// identity returns the selection of all n key columns, in order.
func identity(n int) []int {
	sel := make([]int, n)
	for j := range sel {
		sel[j] = j
	}
	return sel
}

// derive builds the CM over the key columns sel of base (indexes into
// base.KeyCols, in key order) at the given widths, keyBytes wide, from the
// base's pairs. Dropping key columns is exact for the same reason
// re-bucketing is: the distinct pairs of a projection are the projection
// of the distinct pairs. The base need not be exact: each of its selected
// widths must divide the target width, and a value is re-bucketed by the
// quotient, since floor division composes (⌊⌊v/a⌋/b⌋ = ⌊v/ab⌋).
func (pk *pairKernel) derive(base *CM, sel []int, widths []value.V, keyBytes int) *CM {
	keyCols := make([]int, len(sel))
	by := make([]value.V, len(sel)) // re-bucketing width from base to target
	for j, s := range sel {
		keyCols[j] = base.KeyCols[s]
		bw := max(base.KeyWidths[s], 1)
		if max(widths[j], 1)%bw != 0 {
			panic("cm: derive needs base widths that divide the target widths")
		}
		by[j] = max(widths[j], 1) / bw
	}
	m := &CM{
		KeyCols:               keyCols,
		KeyWidths:             widths,
		ClusterPagesPerBucket: base.ClusterPagesPerBucket,
		keyBytes:              keyBytes,
		numPages:              base.numPages,
	}
	// The items are the base's pairs, projected, re-bucketed and moved into
	// clustered bucket order by one counting pass; run b is clustered
	// bucket b.
	k, n := len(base.KeyCols), len(base.buckets)
	numBuckets := 0
	for _, b := range base.buckets {
		numBuckets = max(numBuckets, int(b)+1)
	}
	starts := slices.Grow(pk.starts[:0], numBuckets+1)[:numBuckets+1]
	clear(starts)
	for _, b := range base.buckets {
		starts[b+1]++
	}
	for b := range numBuckets {
		starts[b+1] += starts[b]
	}
	cols := make([][]value.V, len(sel))
	for j := range cols {
		cols[j] = pk.column(j, n)
	}
	for i, b := range base.buckets {
		at := starts[b]
		starts[b]++
		for j, col := range cols {
			col[at] = BucketValue(base.keys[i*k+sel[j]], by[j])
		}
	}
	// Placing each item advanced its bucket's start to the next bucket's.
	copy(starts[1:], starts[:numBuckets])
	starts[0] = 0
	pk.starts = starts
	m.keys, m.buckets = pk.distinct(cols, starts)
	return m
}

// pairKernel finds the distinct (bucketed key, clustered bucket) pairs of
// a sequence of items — a relation's rows for Build, a base CM's pairs for
// Derive and the Designer's projections — that arrive in runs of one
// clustered bucket each, in bucket order. Each item's key gets a dense
// code, numbered in key order; a stamp per code, the last run that kept
// it, keeps an item only when its code is new to the run, and one
// counting pass by code puts the survivors in (key, bucket) order. A
// kernel's buffers are reused by its next call: the CM Designer keeps one
// per row scan for the scan, its projections and their width sweeps.
type pairKernel struct {
	// code is each item's key code; stamp holds, per code, 1 + the last
	// run that kept it; count the survivors per code, then their offsets.
	code, stamp, count []int32
	// item and run are the survivors in scan order: the item and its run.
	item, run []int32
	// starts are the run boundaries; perm and buf serve encode's sort by
	// rank; cols are scratch for key columns that are not read in place.
	starts    []int
	perm, buf []int32
	cols      [][]value.V
}

// column returns scratch key column j, of n values.
func (pk *pairKernel) column(j, n int) []value.V {
	for len(pk.cols) <= j {
		pk.cols = append(pk.cols, nil)
	}
	pk.cols[j] = slices.Grow(pk.cols[j][:0], n)[:n]
	return pk.cols[j]
}

// distinct returns the distinct (key, run) pairs of the items whose
// bucketed key columns are cols, run r being items [starts[r],
// starts[r+1]) and every column holding one value per item, as flat keys
// (stride len(cols)) and buckets in (key, run) order, sized exactly.
func (pk *pairKernel) distinct(cols [][]value.V, starts []int) (keys []value.V, buckets []int32) {
	space := pk.encode(cols, starts[len(starts)-1])
	code := pk.code
	stamp := slices.Grow(pk.stamp[:0], space)[:space]
	count := slices.Grow(pk.count[:0], space)[:space]
	clear(stamp)
	clear(count)
	item, run := pk.item[:0], pk.run[:0]
	for r := range len(starts) - 1 {
		s, prev := int32(r+1), int32(-1)
		for i := starts[r]; i < starts[r+1]; i++ {
			// A repeat of the previous item's code, the common case on a
			// key that follows the clustered order, skips the stamp.
			c := code[i]
			if c == prev {
				continue
			}
			prev = c
			if stamp[c] == s {
				continue
			}
			stamp[c] = s
			count[c]++
			item, run = append(item, int32(i)), append(run, int32(r))
		}
	}
	pk.stamp, pk.count, pk.item, pk.run = stamp, count, item, run
	var sum int32
	for c, cnt := range count {
		count[c], sum = sum, sum+cnt
	}
	k := len(cols)
	keys, buckets = make([]value.V, len(item)*k), make([]int32, len(item))
	for t, i := range item {
		at := count[code[i]]
		count[code[i]]++
		for j, col := range cols {
			keys[int(at)*k+j] = col[i]
		}
		buckets[at] = run[t]
	}
	return keys, buckets
}

// encode sets pk.code[i] to the code of item i's key in cols, for n items,
// and returns the number of codes. Codes are numbered in key order, so
// sorting by code sorts by key. A key set that codes densely takes its
// offsets code (value.DenseCode); any wider one (MinInt64 beside
// MaxInt64, or a wide composite) is coded by its rank among the distinct
// keys, from one sort of the items.
func (pk *pairKernel) encode(cols [][]value.V, n int) int {
	code := slices.Grow(pk.code[:0], n)[:n]
	pk.code = code
	if space, ok := value.DenseCode(code, nil, cols...); ok {
		return space
	}
	perm := slices.Grow(pk.perm[:0], n)[:n]
	for i := range perm {
		perm[i] = int32(i)
	}
	pk.perm, pk.buf = perm, value.SortPerm(perm, pk.buf, cols...)
	rank := int32(-1)
	for t, i := range perm {
		if t == 0 || !sameKey(cols, perm[t-1], i) {
			rank++
		}
		code[i] = rank
	}
	return int(rank) + 1
}

// sameKey reports whether items i and j of cols have equal keys.
func sameKey(cols [][]value.V, i, j int32) bool {
	for _, col := range cols {
		if col[i] != col[j] {
			return false
		}
	}
	return true
}

// BucketValue buckets v by truncation to floor(v/width) (width ≤ 1 keeps
// the exact value), with floor division stable for negative values. It is
// the one definition of value bucketing shared by CMs and the
// correlation indexes built on their pair statistics (internal/corridx).
func BucketValue(v, width value.V) value.V {
	if width <= 1 {
		return v
	}
	q := v / width
	if v%width != 0 && v < 0 {
		q--
	}
	return q
}

// NumPairs returns the number of stored (key, bucket) co-occurrences.
func (m *CM) NumPairs() int { return len(m.buckets) }

// Bytes is the CM size: one entry per distinct pair, unlike a dense B+Tree
// which stores one entry per tuple.
func (m *CM) Bytes() int64 {
	return int64(len(m.buckets)) * int64(m.keyBytes+entryOverhead)
}

// Pages is the CM size in disk pages (minimum 1).
func (m *CM) Pages() int {
	p := int((m.Bytes() + storage.PageSize - 1) / storage.PageSize)
	if p < 1 {
		p = 1
	}
	return p
}

// Covers reports whether the CM key is exactly the positions cols (order-
// insensitive).
func (m *CM) Covers(cols []int) bool {
	if len(cols) != len(m.KeyCols) {
		return false
	}
	set := make(map[int]bool, len(m.KeyCols))
	for _, c := range m.KeyCols {
		set[c] = true
	}
	for _, c := range cols {
		if !set[c] {
			return false
		}
	}
	return true
}

// Buckets returns the sorted distinct clustered buckets whose key bucket
// could contain a value satisfying all the predicates (preds[i] applies to
// KeyCols[i]; nil entries are unconstrained). Bucketing introduces false
// positives but no false negatives.
func (m *CM) Buckets(preds []*query.Predicate) []int32 {
	var out []int32
	k := len(m.KeyCols)
pairs:
	for i, bucket := range m.buckets {
		for j, pred := range preds {
			if pred != nil && !BucketMayMatch(m.keys[i*k+j], m.KeyWidths[j], pred) {
				continue pairs
			}
		}
		out = append(out, bucket)
	}
	slices.Sort(out)
	return slices.Compact(out)
}

// BucketMayMatch reports whether the value bucket b (of the given width)
// could contain a value matching pred.
func BucketMayMatch(b, width value.V, pred *query.Predicate) bool {
	if width <= 1 {
		return pred.Matches(b)
	}
	lo, hi, ok := bucketBounds(b, width)
	if !ok {
		return false
	}
	plo, phi := pred.Bounds()
	if hi < plo || lo > phi {
		return false
	}
	if pred.Op == query.In {
		for _, v := range pred.Set {
			if v >= lo && v <= hi {
				return true
			}
		}
		return false
	}
	return true
}

// bucketBounds returns the closed range [lo, hi] of the int64 values that
// bucket b holds at width > 1, and false for a bucket that holds none. The
// buckets of MinInt64 and MaxInt64 reach past the int64 domain unless the
// width divides it, so their bounds are clamped to it: b*width and
// b*width+width-1 would overflow there.
func bucketBounds(b, width value.V) (lo, hi value.V, ok bool) {
	first, last := BucketValue(math.MinInt64, width), BucketValue(math.MaxInt64, width)
	if b < first || b > last {
		return 0, 0, false
	}
	lo, hi = math.MinInt64, math.MaxInt64
	if b > first {
		lo = b * width
	}
	if b < last {
		// Exact even for b == first, where b*width alone underflows: the
		// sum fits, and int64 arithmetic wraps.
		hi = b*width + width - 1
	}
	return lo, hi, true
}

// PageRanges converts clustered buckets into merged half-open heap page
// ranges [lo,hi), coalescing adjacent buckets so each range is one
// sequential fragment.
func (m *CM) PageRanges(buckets []int32) [][2]int {
	var out [][2]int
	w := m.ClusterPagesPerBucket
	for _, b := range buckets {
		lo := int(b) * w
		hi := lo + w
		if hi > m.numPages {
			hi = m.numPages
		}
		if n := len(out); n > 0 && out[n-1][1] >= lo {
			if hi > out[n-1][1] {
				out[n-1][1] = hi
			}
			continue
		}
		out = append(out, [2]int{lo, hi})
	}
	return out
}
