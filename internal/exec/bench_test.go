package exec

import (
	"math/rand"
	"testing"

	"coradd/internal/cm"
	"coradd/internal/corridx"
	"coradd/internal/query"
	"coradd/internal/schema"
	"coradd/internal/storage"
	"coradd/internal/value"
)

// BenchmarkRun times one pinned plan of every kind, and Best, on a
// 200 000-row heap about as wide as the SSB fact and clustered on a, with
// b = a/10 following the clustered order and c independent. Each reports
// ns per scanned heap row (ScannedRows), the unit of coraddbench's
// exec.*_ns_row, so one layer can be re-measured on its own:
//
//	go test -run '^$' -bench BenchmarkRun ./internal/exec/
func BenchmarkRun(b *testing.B) {
	s := schema.New(
		schema.Column{Name: "a", ByteSize: 4},
		schema.Column{Name: "b", ByteSize: 4},
		schema.Column{Name: "c", ByteSize: 4},
		schema.Column{Name: "d", ByteSize: 8},
		schema.Column{Name: "pad", ByteSize: 80},
	)
	rng := rand.New(rand.NewSource(1))
	rows := make([]value.Row, 200_000)
	for i := range rows {
		a := value.V(rng.Intn(1000))
		rows[i] = value.Row{a, a / 10, value.V(rng.Intn(50)), value.V(rng.Intn(1000)), 0}
	}
	rel := storage.NewRelation("bench", s, s.ColSet("a"), rows)
	o := NewObject(rel)
	o.AddBTree(s.ColSet("b"))
	o.AddCM(cm.Build(rel, s.ColSet("b"), []value.V{1}, 0))
	x, err := corridx.Build(rel, s.MustCol("b"), corridx.DefaultConfig())
	if err != nil {
		b.Fatal(err)
	}
	o.AddCorrIdx(x)
	byB := &query.Query{Name: "b", Fact: "bench", AggCol: "d",
		Predicates: []query.Predicate{query.NewEq("b", 4), query.NewRange("c", 10, 20)}}
	byA := &query.Query{Name: "a", Fact: "bench", AggCol: "d",
		Predicates: []query.Predicate{query.NewRange("a", 100, 300), query.NewRange("c", 10, 20)}}
	disk := storage.DefaultDiskParams()
	cases := []struct {
		name string
		q    *query.Query
		run  func(q *query.Query) (Result, error)
	}{
		{"seqscan", byB, pinned(o, SeqScan)},
		{"clustered", byA, pinned(o, ClusteredScan)},
		{"secondary", byB, pinned(o, SecondaryScan)},
		{"cm", byB, pinned(o, CMScan)},
		{"corridx", byB, pinned(o, CorrIdxScan)},
		{"best", byB, func(q *query.Query) (Result, error) { return Best(o, q, disk) }},
	}
	for _, c := range cases {
		b.Run(c.name, func(b *testing.B) {
			var r Result
			var err error
			for b.Loop() {
				if r, err = c.run(c.q); err != nil {
					b.Fatal(err)
				}
			}
			scanned := max(ScannedRows(o, r), 1)
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(scanned), "ns/row")
		})
	}
}

func pinned(o *Object, kind PlanKind) func(*query.Query) (Result, error) {
	return func(q *query.Query) (Result, error) { return Execute(o, q, PlanSpec{Kind: kind}) }
}

// BenchmarkFilter times the scan kernel's predicate loop alone, in ns per
// row, on a 200 000-value column uniform over [0, 1000): Eq, Range and a
// narrow IN test the compiled form (IN on a 16-word bitmap), and the wide
// IN, whose span exceeds the bitmap cap, takes the sorted-set probe. Each
// predicate runs as the first one of a batch, writing the selection vector:
//
//	go test -run '^$' -bench BenchmarkFilter ./internal/exec/
func BenchmarkFilter(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	col := make([]value.V, 200_000)
	for i := range col {
		col[i] = value.V(rng.Intn(1000))
	}
	cases := []struct {
		name string
		p    query.Predicate
	}{
		{"eq", query.NewEq("a", 500)},
		{"range", query.NewRange("a", 100, 300)},
		{"in", query.NewIn("a", 10, 250, 500, 750, 999)},
		{"in_wide", query.NewIn("a", 10, 250, 500, 750, 1<<20)},
	}
	for _, c := range cases {
		pr := query.CompilePred(&c.p, 0)
		b.Run(c.name, func(b *testing.B) {
			var sel [batch]int32
			kept := 0
			for b.Loop() {
				for lo := 0; lo < len(col); lo += batch {
					hi := min(lo+batch, len(col))
					kept += filter(&pr, col[lo:hi], sel[:hi-lo], true)
				}
			}
			if kept == 0 {
				b.Fatal("the predicate kept no row")
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(len(col)), "ns/row")
		})
	}
}
