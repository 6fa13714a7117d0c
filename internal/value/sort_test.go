package value

import (
	"cmp"
	"math"
	"math/rand"
	"slices"
	"sync"
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
// the stable comparison sort of the same permutation, the reference. It
// also checks the scratch contract: the returned buffer is len(perm) long,
// holds the scratch the call needed (n for the radix passes, 2n plus the
// code space for the counting pass), and is buf itself wherever buf could
// hold that. It reports whether the key took the counting pass.
func checkSortPerm(t *testing.T, perm, buf []int32, keys [][]V) ([]int32, bool) {
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
	n, need := len(perm), len(perm)
	space, dense := DenseCode(make([]int32, n), perm, keys...)
	if dense {
		need = 2*n + space
	}
	in := buf
	buf = SortPerm(perm, buf, keys...)
	if len(buf) != n || cap(buf) < need {
		t.Fatalf("returned scratch has length %d and capacity %d, want %d and at least %d", len(buf), cap(buf), n, need)
	}
	if cap(in) >= need && need > 0 && &in[:need][0] != &buf[:need][0] {
		t.Fatalf("a scratch of capacity %d was not reused for a call needing %d", cap(in), need)
	}
	if !slices.Equal(perm, want) {
		i := 0
		for perm[i] == want[i] {
			i++
		}
		t.Fatalf("%d rows, %d keys (dense %v): first difference at %d: position %d, want %d", len(perm), len(keys), dense, i, perm[i], want[i])
	}
	return buf, dense
}

// boundKeys draws k key columns over the positions of perm (all < rows)
// whose value spans over those positions multiply to the dense bound for
// len(perm) keys, plus past: at past 0 the key is exactly as wide as
// the counting pass takes, at past 1 one code wider. The spans are the
// product's smallest factors first, 1 once it is used up; each column's
// minimum and maximum sit at perm's first and last positions.
func boundKeys(rng *rand.Rand, rows int, perm []int32, k, past int) [][]V {
	rest := denseFactor*len(perm) + denseFloor + past
	keys := make([][]V, k)
	for j := range keys {
		span := rest
		if j < k-1 {
			span = 1
			for d := 2; d*d <= rest; d++ {
				if rest%d == 0 {
					span = d
					break
				}
			}
		}
		rest /= span
		base := V(rng.Int63n(1<<40)) - 1<<39
		col := make([]V, rows)
		for p := range col {
			col[p] = base + V(rng.Intn(span))
		}
		col[perm[len(perm)-1]], col[perm[0]] = base+V(span-1), base
		keys[j] = col
	}
	return keys
}

// sortPermInput decodes a fuzz input: 0-4 key columns of a drawn shape
// and span over 0-2 000 rows, and a starting permutation that is the
// identity or a shuffled subset of the rows (with repeats allowed). Byte
// 14 at 1 or 2 makes the key instead exactly as wide as the dense bound,
// or one code wider (boundKeys).
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
	if past := at(14) % 3; past > 0 && nkeys > 0 && len(perm) > 0 {
		keys = boundKeys(rng, n, perm, nkeys, past-1)
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
	// Keys exactly at the dense bound and one code past it, over the
	// identity and over a subset with repeats; a key of MinInt64 beside
	// MaxInt64; one row.
	f.Add([]byte{2, 3, 232, 1, 2, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1})
	f.Add([]byte{2, 3, 232, 1, 2, 0, 0, 0, 0, 0, 0, 0, 0, 0, 2})
	f.Add([]byte{3, 3, 232, 4, 1, 0, 0, 0, 0, 0, 0, 0, 0, 1, 1})
	f.Add([]byte{1, 3, 232, 4, 1, 0, 0, 0, 0, 0, 0, 0, 0, 1, 2})
	f.Add([]byte{2, 0, 100, 6, 6, 4, 0, 0, 3, 0, 0, 0, 0, 1})
	f.Add([]byte{1, 0, 1, 0, 0, 0, 5})
	var buf []int32
	f.Fuzz(func(t *testing.T, data []byte) {
		perm, keys := sortPermInput(data)
		buf, _ = checkSortPerm(t, perm, buf, keys)
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
				buf, _ = checkSortPerm(t, perm, buf, [][]V{sortPermColumn(rng, n, shape, bits)})
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
			buf, _ = checkSortPerm(t, p32, buf, keys)
		}
	}
	// Keys exactly as wide as the counting pass takes and one code wider
	// from the identity and from a permutation that repeats some positions
	// and misses others (whose values lie outside the span, unread), on
	// one to three columns; the bound is reached through the scratch
	// buffer grown by the previous calls and through a nil one.
	for _, n := range []int{2, 1000, 2000} {
		for _, subset := range []bool{false, true} {
			perm := make([]int32, n)
			for i := range perm {
				perm[i] = int32(i)
				if subset {
					perm[i] = int32(rng.Intn(n/2 + 1))
				}
			}
			if subset {
				perm[0], perm[n-1] = 0, int32(n/2) // two positions, so the span can reach the bound
			}
			for k := 1; k <= 3; k++ {
				for past := range 2 {
					keys := boundKeys(rng, n, perm, k, past)
					if subset && n > 2 {
						for _, col := range keys {
							col[n-1] = math.MaxInt64 // not in perm: must not widen the span
						}
					}
					for _, scratch := range [][]int32{buf, nil} {
						var dense bool
						buf, dense = checkSortPerm(t, slices.Clone(perm), scratch, keys)
						if dense != (past == 0) {
							t.Fatalf("n=%d subset=%v %d columns %d past the bound: counting pass %v", n, subset, k, past, dense)
						}
					}
				}
			}
		}
	}
	// A span that wraps: MinInt64 beside MaxInt64 is the widest key.
	wrap := []V{math.MaxInt64, 0, math.MinInt64, -1, math.MaxInt64, math.MinInt64}
	if buf, dense := checkSortPerm(t, []int32{0, 1, 2, 3, 4, 5}, buf, [][]V{wrap}); dense || len(buf) != 6 {
		t.Fatalf("MinInt64 beside MaxInt64 took the counting pass, or the scratch is %d long", len(buf))
	}
}

// TestSortFromManyGoroutines runs Sort, whose scratch comes from a shared
// pool, on several goroutines at once over keys that take the counting
// pass and keys that take the radix passes; each result must equal
// SortPerm's through a scratch of its own.
func TestSortFromManyGoroutines(t *testing.T) {
	var wg sync.WaitGroup
	for g := range 4 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			for range 50 {
				n := rng.Intn(3000)
				keys := make([][]V, 1+rng.Intn(3))
				for k := range keys {
					keys[k] = sortPermColumn(rng, n, rng.Intn(numShapes), 1+rng.Intn(24))
				}
				want := make([]int32, n)
				for i := range want {
					want[i] = int32(i)
				}
				got := slices.Clone(want)
				SortPerm(want, nil, keys...)
				Sort(got, keys...)
				if !slices.Equal(got, want) {
					t.Errorf("goroutine %d: %d rows, %d keys: Sort differs from SortPerm", g, n, len(keys))
					return
				}
			}
		}()
	}
	wg.Wait()
}
