package value

import (
	"cmp"
	"math"
	"math/rand"
	"slices"
	"testing"
)

// Column shapes for the SortPerm tests, drawn per key column.
const (
	shapeRandom   = iota // uniform over a span of 1..64 bits, shifted below zero
	shapeConstant        // one value everywhere: no pass at all
	shapeSorted          // non-decreasing in position order: skipped from the identity
	shapeReversed        // non-increasing: every pass moves everything
	shapeExtremes        // MinInt64, MaxInt64 and a few values between: the full 2^64-1 span
	numShapes
)

// sortPermColumn draws one key column of n values of the given shape;
// spanBits bounds a random column's span.
func sortPermColumn(rng *rand.Rand, n, shape, spanBits int) []V {
	col := make([]V, n)
	switch shape {
	case shapeRandom:
		base := -V(rng.Int63n(1 << 40))
		for i := range col {
			col[i] = base + V(rng.Uint64()>>(64-spanBits))
		}
	case shapeConstant:
		c := V(rng.Int63()) - math.MaxInt64/2
		for i := range col {
			col[i] = c
		}
	case shapeSorted, shapeReversed:
		v := V(rng.Intn(1000)) - 500
		for i := range col {
			v += V(rng.Intn(3)) << uint(rng.Intn(20))
			col[i] = v
		}
		if shape == shapeReversed {
			slices.Reverse(col)
		}
	case shapeExtremes:
		vals := []V{math.MinInt64, math.MaxInt64, 0, -1, 1, math.MinInt64 + 1, math.MaxInt64 - 1}
		for i := range col {
			col[i] = vals[rng.Intn(len(vals))]
		}
	}
	return col
}

// checkSortPerm sorts perm with SortPerm through buf and compares it with
// the stable comparison sort of the same permutation, the reference.
func checkSortPerm(t *testing.T, perm, buf []int32, keys [][]V) []int32 {
	t.Helper()
	want := slices.Clone(perm)
	slices.SortStableFunc(want, func(a, b int32) int {
		for _, col := range keys {
			if c := cmp.Compare(col[a], col[b]); c != 0 {
				return c
			}
		}
		return 0
	})
	buf = SortPerm(perm, buf, keys...)
	if len(buf) != len(perm) {
		t.Fatalf("returned scratch has length %d, want %d", len(buf), len(perm))
	}
	if !slices.Equal(perm, want) {
		i := 0
		for perm[i] == want[i] {
			i++
		}
		t.Fatalf("%d rows, %d keys: first difference at %d: position %d, want %d", len(perm), len(keys), i, perm[i], want[i])
	}
	return buf
}

// sortPermInput decodes a fuzz input: 0-4 key columns of a drawn shape
// and span over 0-2 000 rows, and a starting permutation that is the
// identity or a shuffled subset of the rows (with repeats allowed).
func sortPermInput(data []byte) (perm []int32, keys [][]V) {
	at := func(i int) int {
		if i < len(data) {
			return int(data[i])
		}
		return 0
	}
	nkeys, n := at(0)%5, (at(1)<<8|at(2))%2001
	rng := rand.New(rand.NewSource(int64(at(3))<<8 | int64(at(4))))
	keys = make([][]V, nkeys)
	for k := range keys {
		keys[k] = sortPermColumn(rng, n, at(5+2*k)%numShapes, 1+at(6+2*k)%64)
	}
	perm = make([]int32, n)
	for i := range perm {
		perm[i] = int32(i)
	}
	if n > 0 && at(13)%2 == 1 {
		perm = perm[:rng.Intn(n+1)]
		for i := range perm {
			perm[i] = int32(rng.Intn(n))
		}
	}
	return perm, keys
}

// FuzzSortPerm checks the radix kernel against the stable comparison sort
// on byte-decoded columns, reusing one scratch buffer across inputs of
// different sizes.
func FuzzSortPerm(f *testing.F) {
	f.Add([]byte{1, 1, 0, 0, 1, 0, 15})
	f.Add([]byte{2, 7, 208, 3, 9, 4, 0, 0, 63, 0, 0, 0, 0, 1})
	f.Add([]byte{4, 3, 0, 5, 5, 2, 0, 3, 0, 1, 0, 0, 8, 0})
	f.Add([]byte{3, 0, 200, 7, 7, 0, 7, 0, 8, 0, 16})
	f.Add([]byte{})
	var buf []int32
	f.Fuzz(func(t *testing.T, data []byte) {
		perm, keys := sortPermInput(data)
		buf = checkSortPerm(t, perm, buf, keys)
	})
}

// TestSortPermMatchesStableSort is the seeded property test: every shape
// as a single key and in mixed multi-column keys, spans on both sides of
// each 8- and 11-bit digit boundary, and both permutation kinds.
func TestSortPermMatchesStableSort(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var buf []int32
	for _, n := range []int{0, 1, 2, 255, 256, 257, 2000} {
		for shape := range numShapes {
			for _, bits := range []int{1, 7, 8, 9, 11, 12, 15, 16, 17, 22, 23, 31, 32, 33, 63, 64} {
				perm := make([]int32, n)
				for i := range perm {
					perm[i] = int32(i)
				}
				buf = checkSortPerm(t, perm, buf, [][]V{sortPermColumn(rng, n, shape, bits)})
			}
		}
		for range 50 {
			keys := make([][]V, 1+rng.Intn(4))
			for k := range keys {
				keys[k] = sortPermColumn(rng, n, rng.Intn(numShapes), 1+rng.Intn(64))
			}
			perm := rng.Perm(n)
			p32 := make([]int32, n)
			for i, p := range perm {
				p32[i] = int32(p)
			}
			buf = checkSortPerm(t, p32, buf, keys)
		}
	}
}
