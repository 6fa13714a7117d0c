package ilp

import (
	"fmt"
	"math/rand"
	"testing"
)

// cappedProblem draws a pinned selection instance shaped like the
// designer's 52-query pools: candidates come in families, one view over a
// query group in several clustering variants of equal size, each variant
// fast on the group's queries its key suits and slower on the rest; one
// candidate in ten is a fact re-clustering (one group) that serves every
// query moderately. The budget holds a handful of views, so the exact
// search runs into its node cap.
func cappedProblem(seed int64, n, nQ int) *Problem {
	rng := rand.New(rand.NewSource(seed))
	p := &Problem{Base: make([]float64, nQ)}
	for q := range p.Base {
		p.Base[q] = 1 + rng.Float64()*9
	}
	var total int64
	for len(p.Cands) < n {
		group := rng.Perm(nQ)[:2+rng.Intn(nQ/4)]
		size, fg := int64(len(group)*(50+rng.Intn(50))), 0
		if rng.Float64() < 0.1 {
			group, size, fg = rng.Perm(nQ), int64(nQ*100), 1
		}
		for v := 1 + rng.Intn(6); v > 0 && len(p.Cands) < n; v-- {
			times := make([]float64, nQ)
			for q := range times {
				times[q] = Infeasible
			}
			for _, q := range group {
				f := 0.5 + rng.Float64()*0.6
				if rng.Intn(3) == 0 {
					f = 0.05 + rng.Float64()*0.25
				}
				times[q] = p.Base[q] * f
			}
			total += size
			p.Cands = append(p.Cands, Candidate{Name: fmt.Sprint("c", len(p.Cands)), Size: size, Times: times, FactGroup: fg})
		}
	}
	p.Budget = total / int64(n) * 6
	return p
}

// BenchmarkSolveCapped times the exact selection search on pinned
// instances of about 160 and 500 candidates × 52 queries, capped at 100k
// nodes, and reports ns per search node (set-up included), so the
// solver's node rate can be re-measured without the designer around it:
//
//	go test -run '^$' -bench BenchmarkSolveCapped ./internal/ilp/
func BenchmarkSolveCapped(b *testing.B) {
	for _, n := range []int{160, 500} {
		p := cappedProblem(int64(n), n, 52)
		b.Run(fmt.Sprintf("cands=%d", n), func(b *testing.B) {
			nodes := 0
			for b.Loop() {
				nodes += Solve(p, SolveOptions{MaxNodes: 100_000}).Nodes
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(nodes), "ns/node")
			b.ReportMetric(float64(nodes)/float64(b.N), "nodes/op")
		})
	}
}
