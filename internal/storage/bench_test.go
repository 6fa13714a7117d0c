package storage

import (
	"math/rand"
	"testing"

	"coradd/internal/schema"
	"coradd/internal/value"
)

// BenchmarkSortedRIDs times the build sort behind Recluster, Project and
// the B+Tree bulk load on a pinned 300 000-row heap in load (random)
// order, SSB-like in its spans: a date-coded column over seven years, a
// 30 000-value key, a 50-value quantity and a column of negative values.
// Keys of one, two and three columns each report ns per sorted row, the
// unit that makes storage.recluster_ms and btree.build_ms comparable
// across heap sizes:
//
//	go test -run '^$' -bench BenchmarkSortedRIDs ./internal/storage/
func BenchmarkSortedRIDs(b *testing.B) {
	s := schema.New(
		schema.Column{Name: "date", ByteSize: 4},
		schema.Column{Name: "cust", ByteSize: 4},
		schema.Column{Name: "qty", ByteSize: 4},
		schema.Column{Name: "neg", ByteSize: 8},
	)
	rng := rand.New(rand.NewSource(1))
	rows := make([]value.Row, 300_000)
	for i := range rows {
		year, day := value.V(1992+rng.Intn(7)), value.V(rng.Intn(365))
		rows[i] = value.Row{year*10000 + (day/31+1)*100 + day%31 + 1, value.V(rng.Intn(30_000)),
			value.V(1 + rng.Intn(50)), -value.V(rng.Intn(1 << 20))}
	}
	rel := NewRelation("bench", s, nil, rows)
	for _, key := range []struct {
		name string
		cols []int
	}{
		{"1col", s.ColSet("date")},
		{"2col", s.ColSet("qty", "cust")},
		{"3col", s.ColSet("qty", "neg", "date")},
	} {
		b.Run(key.name, func(b *testing.B) {
			for b.Loop() {
				if rel.SortedRIDs(key.cols) == nil {
					b.Fatal("a load-order heap came back sorted")
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(rel.NumRows()), "ns/row")
		})
	}
}
