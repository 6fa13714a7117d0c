// Package cm implements Correlation Maps (Kimura et al., VLDB 2009; paper
// Appendix A-1): compressed secondary indexes that map each distinct value
// (or bucket) of an unclustered attribute to the set of clustered-key
// buckets it co-occurs with. When the unclustered attribute is correlated
// with the clustered key, the map is tiny and a lookup yields only a few
// contiguous heap ranges.
package cm

import (
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
	// Rows are scanned in clustered order, one clustered bucket — a few
	// thousand rows — at a time, and each bucket's keys are deduplicated
	// while they are cache-resident.
	rowsPerBucket := rel.TuplesPerPage() * clusterPagesPerBucket
	pc := newPairCollector(len(keyCols))
	n := rel.NumRows()
	for lo := 0; lo < n; lo += rowsPerBucket {
		bucket := int32(lo / rowsPerBucket)
		for i := lo; i < min(lo+rowsPerBucket, n); i++ {
			for j, c := range keyCols {
				pc.key[j] = BucketValue(rel.Cols[c][i], keyWidths[j])
			}
			pc.add(bucket)
		}
		pc.flush()
	}
	m.keys, m.buckets = pc.finish()
	return m
}

// pairCollector accumulates distinct (bucketed key, clustered bucket)
// pairs for keys of any length. The caller writes each candidate key into
// pc.key and calls add, and calls flush wherever the input has locality —
// Build after every clustered bucket, whose keys repeat (that they do is
// what a CM exists for). flush sorts and compacts only the pairs added
// since the last one, so the row-scale input is deduplicated in small
// cache-resident runs and only the survivors, near the distinct count, are
// sorted globally by finish. Consecutive repeats are dropped before they
// enter a run at all. The result is exactly the distinct pair set in
// (key, bucket) order, wherever the flushes fall.
type pairCollector struct {
	key []value.V
	// run are the pairs added since the last flush and out the survivors of
	// earlier flushes: Lead is the key's first value, Tie the clustered
	// bucket, and Pos locates the key's remaining len(key)-1 values in
	// runRest / outRest.
	run, out         []value.Ref
	runRest, outRest []value.V
}

func newPairCollector(keyLen int) *pairCollector {
	return &pairCollector{key: make([]value.V, keyLen)}
}

func (pc *pairCollector) add(bucket int32) {
	w := len(pc.key) - 1
	if n := len(pc.run); n > 0 && pc.run[n-1].Tie == bucket && pc.run[n-1].Lead == pc.key[0] &&
		slices.Equal(pc.runRest[(n-1)*w:], pc.key[1:]) {
		return
	}
	pc.run = append(pc.run, value.Ref{Lead: pc.key[0], Tie: bucket, Pos: int32(len(pc.run))})
	pc.runRest = append(pc.runRest, pc.key[1:]...)
}

// flush moves the distinct pairs of the current run to the survivors.
func (pc *pairCollector) flush() {
	w := len(pc.key) - 1
	for _, r := range sortCompact(pc.run, pc.runRest, w) {
		pc.out = append(pc.out, value.Ref{Lead: r.Lead, Tie: r.Tie, Pos: int32(len(pc.out))})
		pc.outRest = append(pc.outRest, pc.runRest[int(r.Pos)*w:][:w]...)
	}
	pc.run, pc.runRest = pc.run[:0], pc.runRest[:0]
}

// sortCompact sorts refs by (key, bucket) and drops repeated pairs, in
// place.
func sortCompact(refs []value.Ref, rest []value.V, w int) []value.Ref {
	value.SortRefs(refs, rest, w)
	return slices.CompactFunc(refs, func(a, b value.Ref) bool { return value.CompareRefs(a, b, rest, w) == 0 })
}

// finish flushes the last run and returns the distinct pairs in (key,
// bucket) order as flat arrays sized by the survivors: the collector's
// buffers grew with the input, the CM must retain only O(distinct).
func (pc *pairCollector) finish() (keys []value.V, buckets []int32) {
	pc.flush()
	w := len(pc.key) - 1
	sorted := sortCompact(pc.out, pc.outRest, w)
	keys = make([]value.V, 0, len(sorted)*(w+1))
	buckets = make([]int32, len(sorted))
	for i, r := range sorted {
		keys = append(append(keys, r.Lead), pc.outRest[int(r.Pos)*w:][:w]...)
		buckets[i] = r.Tie
	}
	return keys, buckets
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
	m := &CM{
		KeyCols:               base.KeyCols,
		KeyWidths:             widths,
		ClusterPagesPerBucket: base.ClusterPagesPerBucket,
		keyBytes:              base.keyBytes,
		numPages:              base.numPages,
	}
	k := len(base.KeyCols)
	pc := newPairCollector(k)
	for i, bucket := range base.buckets {
		for j, v := range base.keys[i*k : (i+1)*k] {
			pc.key[j] = BucketValue(v, widths[j])
		}
		pc.add(bucket)
	}
	m.keys, m.buckets = pc.finish()
	return m
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
	lo, hi := b*width, b*width+width-1
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
