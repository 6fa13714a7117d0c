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

import "math/bits"

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

// SortPerm's counting passes each order one digitBits-wide digit.
const (
	digitBits = 8
	radix     = 1 << digitBits
)

// SortPerm stably reorders the positions in perm by keys[0], then keys[1],
// and so on, where keys[k][p] is the k-th key value of position p, and
// returns buf, grown to len(perm), for reuse as scratch by the next call.
// From the identity permutation the result is the stable sort on the keys,
// i.e. the sort on (keys..., position).
//
// It is a least-significant-digit radix sort with no comparator: one
// counting pass per digitBits-wide digit of v - min over the bits the
// column's range spans, last key first. A column already non-decreasing
// along perm, and a digit every position shares, need no pass, because a
// stable pass over them is the identity.
func SortPerm(perm, buf []int32, keys ...[]V) []int32 {
	n := len(perm)
	if cap(buf) < n {
		buf = make([]int32, n)
	}
	buf = buf[:n]
	if n == 0 {
		return buf
	}
	src, dst := perm, buf
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
	if &src[0] == &buf[0] {
		copy(perm, buf)
	}
	return buf
}
