// Package value defines the attribute value representation shared by the
// storage engine, indexes, statistics and the designer.
//
// All attribute values are int64-coded. Integer-like attributes (dates,
// quantities, keys) store their natural value; string attributes are
// dictionary-coded per column at generation/load time, with the dictionary
// kept in column metadata (see package schema). This keeps the executor,
// B+Trees, correlation maps and statistics free of interface boxing on the
// hot path while preserving order where the dictionary is built from sorted
// distinct strings.
package value

import (
	"math"
	"math/bits"
	"slices"
	"sync"
)

// V is a single attribute value. The zero value is a valid value (0).
type V = int64

// Row is one tuple: a slice of values positionally aligned with the columns
// of the owning schema. Rows are stored by value inside relations; callers
// must not retain references across mutations of the owning relation.
type Row = []V

// CompareKeys compares two composite keys of equal length lexicographically.
func CompareKeys(a, b []V) int {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	for i := 0; i < n; i++ {
		switch {
		case a[i] < b[i]:
			return -1
		case a[i] > b[i]:
			return 1
		}
	}
	switch {
	case len(a) < len(b):
		return -1
	case len(a) > len(b):
		return 1
	}
	return 0
}

// SortPerm's LSD passes each order one digitBits-wide digit.
const (
	digitBits = 8
	radix     = 1 << digitBits
)

// denseFactor and denseFloor bound the dense key code: n keys whose
// columns' value spans multiply to at most denseFactor·n + denseFloor
// codes are coded by offset (DenseCode), any wider key set otherwise.
const (
	denseFactor = 4
	denseFloor  = 1024
)

// DenseCode sets code[t], for t < len(code), to the dense code of the key
// of position perm[t] (of position t when perm is nil) in cols, and
// returns the number of codes, when the product of the columns' value
// spans over those positions is at most denseFactor·len(code) +
// denseFloor; otherwise it returns false and leaves code alone. The code
// is the key's offsets from each column's minimum in mixed radix, first
// column most significant, so codes are numbered in key order: sorting by
// code sorts by key, and equal keys share a code.
func DenseCode(code, perm []int32, cols ...[]V) (space int, ok bool) {
	d, ok := denseSpans(perm, len(code), cols)
	if !ok {
		return 0, false
	}
	d.encode(code, perm, cols)
	return d.space, true
}

// denseKey is a dense key coding: each column's minimum and value span,
// and the product of the spans, the number of codes.
type denseKey struct {
	lows  []V
	spans []int32
	space int
}

// denseSpans measures the key columns cols over the first n positions of
// perm (positions 0..n-1 when perm is nil) and returns their dense coding,
// or false when the product of the spans exceeds the dense bound.
func denseSpans(perm []int32, n int, cols [][]V) (denseKey, bool) {
	d := denseKey{lows: make([]V, len(cols)), spans: make([]int32, len(cols)), space: 1}
	if n == 0 {
		d.space = 0
		return d, true
	}
	first := 0
	if perm != nil {
		first = int(perm[0])
	}
	bound := min(uint64(denseFactor*n+denseFloor), math.MaxInt32)
	for j, col := range cols {
		lo, hi := col[first], col[first]
		if perm == nil {
			for _, v := range col[:n] {
				lo, hi = min(lo, v), max(hi, v)
			}
		} else {
			for _, p := range perm[:n] {
				lo, hi = min(lo, col[p]), max(hi, col[p])
			}
		}
		// span wraps to 0 only when the column holds MinInt64 and MaxInt64.
		span := uint64(hi) - uint64(lo) + 1
		if span == 0 || span > bound/uint64(d.space) {
			return d, false
		}
		d.space *= int(span)
		d.lows[j], d.spans[j] = lo, int32(span)
	}
	return d, true
}

// encode sets code[t] to the code of the key of position perm[t] (t when
// perm is nil), one column at a time.
func (d denseKey) encode(code, perm []int32, cols [][]V) {
	n := len(code)
	clear(code)
	for j, col := range cols {
		span, lo := d.spans[j], d.lows[j]
		if perm == nil {
			for t, v := range col[:n] {
				code[t] = code[t]*span + int32(uint64(v)-uint64(lo))
			}
		} else {
			for t, p := range perm[:n] {
				code[t] = code[t]*span + int32(uint64(col[p])-uint64(lo))
			}
		}
	}
}

// SortPerm stably reorders the positions in perm by keys[0], then keys[1],
// and so on, where keys[k][p] is the k-th key value of position p, and
// returns buf, grown to hold the call's scratch and resliced to
// len(perm), for reuse as scratch by the next call. From the identity
// permutation the result is the stable sort on the keys, i.e. the sort on
// (keys..., position).
//
// A key that codes densely (DenseCode) takes one counting pass by code,
// and none when perm is already in code order. A wider key takes a
// least-significant-digit radix sort with no comparator: one counting
// pass per digitBits-wide digit of v - min over the bits the column's
// range spans, last key first. A column already non-decreasing along
// perm, and a digit every position shares, need no pass, because a
// stable pass over them is the identity.
func SortPerm(perm, buf []int32, keys ...[]V) []int32 {
	n := len(perm)
	d, dense := denseSpans(perm, n, keys)
	size := n
	if dense {
		size = 2*n + d.space
	}
	if cap(buf) < size {
		buf = make([]int32, size)
	}
	buf = buf[:size]
	switch {
	case n == 0:
	case dense:
		code := buf[n : 2*n]
		d.encode(code, perm, keys)
		countingPass(perm, buf[:n], code, buf[2*n:])
	default:
		lsdPasses(perm, buf[:n], keys)
	}
	return buf[:n]
}

// Sort is SortPerm for callers that keep no scratch of their own: the
// scratch comes from a pool and goes back to it, so the sorts of a build
// or of a synopsis reuse their code, count and destination arrays instead
// of allocating them per call.
func Sort(perm []int32, keys ...[]V) {
	buf, _ := sortScratch.Get().(*[]int32)
	if buf == nil {
		buf = new([]int32)
	}
	*buf = SortPerm(perm, *buf, keys...)
	sortScratch.Put(buf)
}

var sortScratch sync.Pool // of *[]int32

// Counts returns col's distinct values in ascending order and, at the same
// index, how many times each occurs. A column whose value span is within
// the dense bound (denseFactor·len(col) + denseFloor values) is counted
// into one array indexed by v - min and read back in value order; a wider
// one is sorted (Sort) and its runs counted. The scratch comes from the
// pool Sort draws on.
func Counts(col []V) (vals []V, counts []int) {
	d, dense := denseSpans(nil, len(col), [][]V{col})
	buf, _ := sortScratch.Get().(*[]int32)
	if buf == nil {
		buf = new([]int32)
	}
	defer sortScratch.Put(buf)
	*buf = slices.Grow((*buf)[:0], max(len(col), d.space))
	if dense {
		count, lo := (*buf)[:d.space], d.lows[0]
		clear(count)
		distinct := 0
		for _, v := range col {
			off := uint64(v) - uint64(lo)
			if count[off] == 0 {
				distinct++
			}
			count[off]++
		}
		vals, counts = make([]V, 0, distinct), make([]int, 0, distinct)
		for off, c := range count {
			if c != 0 {
				vals, counts = append(vals, lo+V(off)), append(counts, int(c))
			}
		}
		return vals, counts
	}
	perm := (*buf)[:len(col)]
	for i := range perm {
		perm[i] = int32(i)
	}
	Sort(perm, col)
	distinct := 0
	for i, p := range perm {
		if i == 0 || col[p] != col[perm[i-1]] {
			distinct++
		}
	}
	vals, counts = make([]V, 0, distinct), make([]int, 0, distinct)
	for i, p := range perm {
		if i == 0 || col[p] != vals[len(vals)-1] {
			vals, counts = append(vals, col[p]), append(counts, 0)
		}
		counts[len(counts)-1]++
	}
	return vals, counts
}

// countingPass stably sorts perm by code (code[t] belongs to perm[t]),
// counting each code in count, through dst, which is len(perm) long.
func countingPass(perm, dst, code, count []int32) {
	if slices.IsSorted(code) {
		return
	}
	clear(count)
	for _, c := range code {
		count[c]++
	}
	var sum int32
	for c, cnt := range count {
		count[c], sum = sum, sum+cnt
	}
	for t, c := range code {
		dst[count[c]] = perm[t]
		count[c]++
	}
	copy(perm, dst)
}

// lsdPasses is SortPerm's radix sort of a key too wide to code densely,
// through dst, which is len(perm) long.
func lsdPasses(perm, dst []int32, keys [][]V) {
	n := len(perm)
	src := perm
	for k := len(keys) - 1; k >= 0; k-- {
		col := keys[k]
		lo, hi, prev, sorted := col[src[0]], col[src[0]], col[src[0]], true
		for _, p := range src {
			v := col[p]
			sorted = sorted && prev <= v
			lo, hi, prev = min(lo, v), max(hi, v), v
		}
		if sorted {
			continue
		}
		for shift := 0; shift < bits.Len64(uint64(hi)-uint64(lo)); shift += digitBits {
			var count [radix]int32
			for _, p := range src {
				count[(uint64(col[p])-uint64(lo))>>shift%radix]++
			}
			if count[(uint64(col[src[0]])-uint64(lo))>>shift%radix] == int32(n) {
				continue
			}
			var sum int32
			for d, c := range count {
				count[d], sum = sum, sum+c
			}
			for _, p := range src {
				d := (uint64(col[p]) - uint64(lo)) >> shift % radix
				dst[count[d]] = p
				count[d]++
			}
			src, dst = dst, src
		}
	}
	if &src[0] != &perm[0] {
		copy(perm, src)
	}
}
