package stats

import (
	"runtime"
	"slices"
	"sync"
	"testing"

	"coradd/internal/query"
	"coradd/internal/value"
)

// snapshotTemplates returns 52 queries over hierRelation's columns mixing
// Eq, Range and IN, the size of the SSB workload a monitor snapshots.
func snapshotTemplates() []query.Query {
	var qs []query.Query
	for i := range value.V(13) {
		qs = append(qs,
			query.Query{Name: "eq", Fact: "t", AggCol: "u",
				Predicates: []query.Predicate{query.NewEq("a", 6*i)}},
			query.Query{Name: "range", Fact: "t", AggCol: "u",
				Predicates: []query.Predicate{query.NewRange("a", i, i+20), query.NewEq("b", i%7)}},
			query.Query{Name: "in", Fact: "t", AggCol: "u",
				Predicates: []query.Predicate{query.NewIn("c", i, i+3, i+30), query.NewRange("b", 1, 4)}},
			query.Query{Name: "mixed", Fact: "t", AggCol: "u", Targets: []string{"c"},
				Predicates: []query.Predicate{query.NewIn("a", i, 2*i+1), query.NewRange("c", 0, 3*i)}})
	}
	return qs
}

func heapBytes() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc)
}

// TestQueryCachesStayBounded prices 2 000 snapshots of 52 queries through
// one Stats, each snapshot a fresh copy of every query as a monitor's
// snapshot is, on two goroutines. The per-query caches drop themselves at queryMemoLimit, so
// the heap stays far below what keeping every pointer would hold; and
// every Match rebuilt after a drop equals the first one built.
func TestQueryCachesStayBounded(t *testing.T) {
	if testing.Short() {
		t.Skip("prices 104 000 queries")
	}
	st := New(hierRelation(20000, 7), 1024, 3)
	templates := snapshotTemplates()
	want := make([]Match, len(templates))
	for i := range templates {
		q := templates[i]
		want[i] = *st.MatchBits(&q)
	}
	// Two goroutines share each snapshot, as feedback's workers share a
	// pool, so the caches are also dropped under concurrent readers.
	price := func() {
		var wg sync.WaitGroup
		for half := range 2 {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := half; i < len(templates); i += 2 {
					q := templates[i]
					m := st.MatchBits(&q)
					st.PropagatedVector(&q)
					if !slices.Equal(m.All, want[i].All) || !slices.Equal(m.Cols, want[i].Cols) ||
						!slices.EqualFunc(m.Preds, want[i].Preds, slices.Equal) {
						t.Errorf("%s: Match differs from the first one built", q.String())
						return
					}
				}
			}()
		}
		wg.Wait()
		if t.Failed() {
			t.FailNow()
		}
	}
	base := heapBytes()
	const early = 40 // snapshots whose 2 080 queries stay below the limit
	for range early {
		price()
	}
	perQuery := (heapBytes() - base) / float64(early*len(templates))
	for range 2000 - early {
		price()
	}
	grown := heapBytes() - base
	runtime.KeepAlive(st) // its caches are what is measured
	// Full caches hold queryMemoLimit queries, well under a quarter of
	// the 104 000 that keeping every pointer would.
	if keepAll := perQuery * 2000 * float64(len(templates)); grown > keepAll/4 {
		t.Fatalf("heap grew %.1f MB over 2 000 snapshots, a quarter of keeping every query is %.1f MB (%.0f B a query)",
			grown/1e6, keepAll/4e6, perQuery)
	}
	t.Logf("%.0f B a cached query; heap +%.1f MB after 2 000 snapshots", perQuery, grown/1e6)
}
