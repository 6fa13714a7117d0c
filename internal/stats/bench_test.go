package stats

import "testing"

// BenchmarkDistinct times one uncached composite distinct estimate — the
// (d, f1, f2) profile of a 1 024-row synopsis plus the estimator — for a
// correlated and an independent 2-column composite and a 3-column one:
//
//	go test -run '^$' -bench BenchmarkDistinct ./internal/stats/
func BenchmarkDistinct(b *testing.B) {
	st := New(hierRelation(60_000, 1), 1024, 2)
	for _, c := range []struct {
		name string
		cols []int
	}{{"a,b", []int{0, 1}}, {"a,c", []int{0, 2}}, {"a,b,c", []int{0, 1, 2}}} {
		b.Run(c.name, func(b *testing.B) {
			for b.Loop() {
				clear(st.distinctMem)
				st.Distinct(c.cols...)
			}
		})
	}
}
