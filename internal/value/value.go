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
	"cmp"
	"slices"
)

// V is a single attribute value. The zero value is a valid value (0).
type V = int64

// Row is one tuple: a slice of values positionally aligned with the columns
// of the owning schema. Rows are stored by value inside relations; callers
// must not retain references across mutations of the owning relation.
type Row = []V

// CompareRows compares a and b on the given column positions, in order,
// returning -1, 0 or +1. Used for clustered-key sorting and range checks.
func CompareRows(a, b Row, cols []int) int {
	for _, c := range cols {
		av, bv := a[c], b[c]
		switch {
		case av < bv:
			return -1
		case av > bv:
			return 1
		}
	}
	return 0
}

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

// KeyOf extracts the composite key of row r on column positions cols.
// The result is a fresh slice.
func KeyOf(r Row, cols []int) []V {
	k := make([]V, len(cols))
	for i, c := range cols {
		k[i] = r[c]
	}
	return k
}

// EqualKeys reports whether two composite keys are identical.
func EqualKeys(a, b []V) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// CloneRow returns a copy of r.
func CloneRow(r Row) Row {
	c := make(Row, len(r))
	copy(c, r)
	return c
}

// Ref is one record of a bulk sort over composite keys: the key's leading
// value held inline — so most comparisons never leave the slice being
// sorted — the position of its remaining values in a flat side array, and
// an int32 tie-break that makes the order total. The row-scale build
// kernels whose key length varies (recluster, B+Tree bulk load,
// correlation maps) sort Refs instead of rows, so none of them allocates a
// key per row or sorts through a reflective swapper.
type Ref struct {
	Lead V
	Tie  int32
	Pos  int32
}

// CompareRefs orders a and b by (Lead, rest[Pos*w:(Pos+1)*w], Tie), where
// rest holds the w non-leading key values of every record.
func CompareRefs(a, b Ref, rest []V, w int) int {
	if a.Lead != b.Lead {
		if a.Lead < b.Lead {
			return -1
		}
		return 1
	}
	if w > 0 && a.Pos != b.Pos {
		ra, rb := rest[int(a.Pos)*w:][:w], rest[int(b.Pos)*w:][:w]
		for i, av := range ra {
			if bv := rb[i]; av != bv {
				if av < bv {
					return -1
				}
				return 1
			}
		}
	}
	return cmp.Compare(a.Tie, b.Tie)
}

// SortRefs sorts refs in CompareRefs order. With Tie set to the record's
// input position the result is the stable order of the keys.
func SortRefs(refs []Ref, rest []V, w int) {
	slices.SortFunc(refs, func(a, b Ref) int { return CompareRefs(a, b, rest, w) })
}
