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
// 30 000-value key, a 50-value quantity, a column of negative values, two
// 5-value regions, a 1 000-value brand, a yearmonth, a year and a
// 250-value city. The keys "1col" (a 17-bit date), "regions+brand" (≈15
// bits in all) and "ym+year+city" (≈20 bits) are dense enough for
// SortPerm's one counting pass, as every key of an SSB cold build is;
// "2col" and "3col" span more codes than the bound allows and take the
// radix passes. Each reports ns per sorted row, the unit that makes
// storage.recluster_ms and btree.build_ms comparable across heap sizes:
//
//	go test -run '^$' -bench BenchmarkSortedRIDs ./internal/storage/
func BenchmarkSortedRIDs(b *testing.B) {
	s := schema.New(
		schema.Column{Name: "date", ByteSize: 4},
		schema.Column{Name: "cust", ByteSize: 4},
		schema.Column{Name: "qty", ByteSize: 4},
		schema.Column{Name: "neg", ByteSize: 8},
		schema.Column{Name: "sregion", ByteSize: 1},
		schema.Column{Name: "cregion", ByteSize: 1},
		schema.Column{Name: "brand", ByteSize: 2},
		schema.Column{Name: "ym", ByteSize: 4},
		schema.Column{Name: "year", ByteSize: 2},
		schema.Column{Name: "city", ByteSize: 2},
	)
	rng := rand.New(rand.NewSource(1))
	rows := make([]value.Row, 300_000)
	for i := range rows {
		year, day := value.V(1992+rng.Intn(7)), value.V(rng.Intn(365))
		rows[i] = value.Row{year*10000 + (day/31+1)*100 + day%31 + 1, value.V(rng.Intn(30_000)),
			value.V(1 + rng.Intn(50)), -value.V(rng.Intn(1 << 20)),
			value.V(rng.Intn(5)), value.V(rng.Intn(5)), value.V(rng.Intn(1000)),
			year*100 + day/31 + 1, year, value.V(rng.Intn(250))}
	}
	rel := NewRelation("bench", s, nil, rows)
	for _, key := range []struct {
		name string
		cols []int
	}{
		{"1col", s.ColSet("date")},
		{"2col", s.ColSet("qty", "cust")},
		{"3col", s.ColSet("qty", "neg", "date")},
		{"regions+brand", s.ColSet("sregion", "cregion", "brand")},
		{"ym+year+city", s.ColSet("ym", "year", "city")},
	} {
		b.Run(key.name, func(b *testing.B) {
			b.ReportAllocs()
			for b.Loop() {
				if rel.SortedRIDs(key.cols) == nil {
					b.Fatal("a load-order heap came back sorted")
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(rel.NumRows()), "ns/row")
		})
	}
}
