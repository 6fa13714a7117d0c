package costmodel_test

import (
	"testing"
	"time"

	"coradd/internal/candgen"
	"coradd/internal/costmodel"
	"coradd/internal/scenario"
	"coradd/internal/ssb"
	"coradd/internal/stats"
	"coradd/internal/storage"
)

// BenchmarkEstimate prices the QuickScale candidate pool against the 52
// augmented SSB queries on a pinned 60 000-row fact and its 1 024-row
// synopsis, each pass on a cold model, and reports ns per estimate. "cold"
// starts every pass on fresh statistics, so match bitmaps and rank
// permutations are built inside it; "warm" reuses statistics an earlier
// pass filled, the state a designer prices in after candidate generation:
//
//	go test -run '^$' -bench BenchmarkEstimate ./internal/costmodel/
func BenchmarkEstimate(b *testing.B) {
	rel := ssb.Generate(ssb.Config{Rows: 60_000, Customers: 2000, Suppliers: 200, Parts: 1500, Seed: 42})
	w := ssb.AugmentedQueries()
	disk := storage.DefaultDiskParams()
	warm := stats.New(rel, 1024, 42)
	gen := candgen.New(warm, costmodel.NewAware(warm, disk), w, scenario.QuickScale().Cand)
	gen.PKCols = ssb.PKCols(rel.Schema)
	pool := gen.Generate()
	pass := func(st *stats.Stats) time.Duration {
		start := time.Now()
		m := costmodel.NewAware(st, disk)
		for _, d := range pool {
			for _, q := range w {
				m.Estimate(d, q)
			}
		}
		return time.Since(start)
	}
	for _, cold := range []bool{true, false} {
		name := "warm"
		if cold {
			name = "cold"
		}
		b.Run(name, func(b *testing.B) {
			var total time.Duration
			passes := 0
			for b.Loop() {
				st := warm
				if cold {
					st = stats.New(rel, 1024, 42)
				}
				total += pass(st)
				passes++
			}
			b.ReportMetric(float64(total.Nanoseconds())/float64(passes*len(pool)*len(w)), "ns/estimate")
		})
	}
}
