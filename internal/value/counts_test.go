package value

import (
	"math/rand"
	"testing"
)

// countsInput decodes a fuzz input into one column of 0-2 000 values of a
// drawn shape and span (sortPermColumn). Byte 6 at 1 or 2 makes the column
// of two or more values instead span exactly the dense bound, or one value
// more (boundKeys).
func countsInput(data []byte) (col []V, past int) {
	at := func(i int) int {
		if i < len(data) {
			return int(data[i])
		}
		return 0
	}
	n := (at(0)<<8 | at(1)) % 2001
	rng := rand.New(rand.NewSource(int64(at(2))<<8 | int64(at(3))))
	col = sortPermColumn(rng, n, at(4)%numShapes, 1+at(5)%64)
	if p := at(6) % 3; p > 0 && n > 1 {
		past = p
		perm := make([]int32, n)
		for i := range perm {
			perm[i] = int32(i)
		}
		col = boundKeys(rng, n, perm, 1, past-1)[0]
	}
	return col, past
}

// FuzzColumnStats checks Counts, on its counting and its sort path, against
// counting the column into a map: the values ascend strictly, and each
// count is the map's.
func FuzzColumnStats(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 1})
	for shape := range byte(numShapes) {
		f.Add([]byte{7, 208, 0, shape, shape, 10})
		f.Add([]byte{3, 0, 1, shape, shape, 40})
	}
	// Spans exactly at the dense bound and one past it.
	f.Add([]byte{3, 232, 0, 5, 0, 0, 1})
	f.Add([]byte{3, 232, 0, 5, 0, 0, 2})
	f.Add([]byte{0, 2, 0, 5, 0, 0, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		col, past := countsInput(data)
		_, dense := DenseCode(make([]int32, len(col)), nil, col)
		if past > 0 && dense != (past == 1) {
			t.Fatalf("%d values %d past the dense bound: counting path %v", len(col), past-1, dense)
		}
		want := make(map[V]int)
		for _, v := range col {
			want[v]++
		}
		vals, counts := Counts(col)
		if len(vals) != len(want) || len(counts) != len(vals) {
			t.Fatalf("dense %v: %d values and %d counts, want %d distinct", dense, len(vals), len(counts), len(want))
		}
		for i, v := range vals {
			if i > 0 && vals[i-1] >= v {
				t.Fatalf("dense %v: values not strictly ascending at %d: %d then %d", dense, i, vals[i-1], v)
			}
			if counts[i] != want[v] {
				t.Fatalf("dense %v: count of %d is %d, want %d", dense, v, counts[i], want[v])
			}
		}
	})
}
