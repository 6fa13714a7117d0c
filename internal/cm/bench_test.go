package cm

import (
	"math/rand"
	"testing"

	"coradd/internal/query"
	"coradd/internal/schema"
	"coradd/internal/storage"
	"coradd/internal/value"
)

// benchHeap is BenchmarkCMBuild's pinned heap: 300 000 rows clustered on a
// date-coded column, with its year, a discount, a quantity and a 40-byte
// note drawn over the whole int64 range.
func benchHeap() (*storage.Relation, *schema.Schema) {
	s := schema.New(
		schema.Column{Name: "date", ByteSize: 4},
		schema.Column{Name: "year", ByteSize: 4},
		schema.Column{Name: "disc", ByteSize: 4},
		schema.Column{Name: "qty", ByteSize: 4},
		schema.Column{Name: "note", ByteSize: 40},
	)
	rng := rand.New(rand.NewSource(1))
	rows := make([]value.Row, 300_000)
	for i := range rows {
		year, day := value.V(1992+rng.Intn(7)), value.V(rng.Intn(365))
		rows[i] = value.Row{year*10000 + (day/31+1)*100 + day%31 + 1, year,
			value.V(rng.Intn(11)), value.V(1 + rng.Intn(50)), value.V(rng.Uint64())}
	}
	return storage.NewRelation("bench", s, s.ColSet("date"), rows), s
}

// BenchmarkCMDesign times the CM Designer for one query on the same heap,
// SSB Q1.1's shape on an orderdate-clustered MV: predicates on year,
// discount and quantity, none the clustered lead, so the candidate key
// sets are the three columns and their three pairs. It reports ns per
// heap row, the unit of cm.design_ms, and the row scans each call makes:
// one per pair, the single columns projected from them.
//
//	go test -run '^$' -bench BenchmarkCMDesign ./internal/cm/
func BenchmarkCMDesign(b *testing.B) {
	rel, _ := benchHeap()
	q := &query.Query{Name: "q1.1", Fact: "bench", AggCol: "qty", Predicates: []query.Predicate{
		query.NewEq("year", 1993), query.NewRange("disc", 1, 3), query.NewRange("qty", 1, 24)}}
	cfg := DefaultDesignerConfig()
	b.ReportAllocs()
	for b.Loop() {
		Design(rel, q, cfg)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(rel.NumRows()), "ns/row")
	scanned, _ := scanSets(candidateKeyCols(rel, q, cfg.MaxKeyCols))
	b.ReportMetric(float64(len(scanned)), "scans/op")
}

// BenchmarkCMBuild times what the CM Designer spends per candidate key set:
// one exact Build over a pinned 300 000-row heap clustered on a date-coded
// column, then a Derive for every other width of the default sweep. The key
// sets follow the clustered order (year), ignore it (discount, quantity) or
// mix both, as in SSB Q1.1 on an orderdate-clustered MV; one more key
// (note, a 40-byte payload drawn over the whole int64 range) spans far more
// values than the heap has rows, so its codes come from a sort by rank, not
// from its values. Each reports ns per heap row, the unit that makes
// cm.design_ms comparable across heap sizes:
//
//	go test -run '^$' -bench BenchmarkCMBuild ./internal/cm/
func BenchmarkCMBuild(b *testing.B) {
	rel, s := benchHeap()
	cfg := DefaultDesignerConfig()
	for _, key := range []struct {
		name string
		cols []int
	}{
		{"year", s.ColSet("year")},
		{"qty", s.ColSet("qty")},
		{"year+disc", s.ColSet("year", "disc")},
		{"disc+qty", s.ColSet("disc", "qty")},
		{"note", s.ColSet("note")},
	} {
		b.Run(key.name, func(b *testing.B) {
			b.ReportAllocs()
			for b.Loop() {
				base := Build(rel, key.cols, onesFor(key.cols), cfg.ClusterPagesPerBucket)
				for _, widths := range widthGrid(len(key.cols), cfg.Widths) {
					if !allOnes(widths) {
						Derive(base, widths)
					}
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(rel.NumRows()), "ns/row")
		})
	}
}
