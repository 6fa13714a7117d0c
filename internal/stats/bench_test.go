package stats

import (
	"fmt"
	"testing"
)

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

// BenchmarkStatsNew times one statistics scan of SSB lineorder (exact
// cardinalities, histograms and a 4 096-row synopsis), per row:
//
//	go test -run '^$' -bench BenchmarkStatsNew ./internal/stats/
func BenchmarkStatsNew(b *testing.B) {
	for _, rows := range []int{60_000, 300_000} {
		rel := ssbRelation(rows)
		b.Run(fmt.Sprintf("%dk", rows/1000), func(b *testing.B) {
			b.ReportAllocs()
			for b.Loop() {
				New(rel, DefaultSampleSize, 42)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*rows), "ns/row")
		})
	}
}
