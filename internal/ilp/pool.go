package ilp

import "fmt"

// Pooled is the block-diagonal instance over N selection problems that
// share one space budget: the multi-tenant selection, solved exactly by
// Solve like any other instance. Queries and candidates concatenate;
// a candidate is Infeasible outside its own tenant's query block;
// fact-group ids are offset per tenant so re-clusterings of different
// tenants' fact tables never exclude each other.
type Pooled struct {
	P        *Problem
	queryOff []int
	candOff  []int
}

// Pool builds the pooled instance under the shared budget.
func Pool(problems []*Problem, budget int64) *Pooled {
	nQ, nC := 0, 0
	pl := &Pooled{queryOff: make([]int, len(problems)), candOff: make([]int, len(problems))}
	for i, p := range problems {
		pl.queryOff[i], pl.candOff[i] = nQ, nC
		nQ += p.numQueries()
		nC += len(p.Cands)
	}
	pp := &Problem{
		Cands:   make([]Candidate, 0, nC),
		Base:    make([]float64, 0, nQ),
		Weights: make([]float64, 0, nQ),
		Budget:  budget,
	}
	factOff := 0
	for i, p := range problems {
		maxGroup := 0
		for q := 0; q < p.numQueries(); q++ {
			pp.Base = append(pp.Base, p.Base[q])
			pp.Weights = append(pp.Weights, p.weight(q))
		}
		for _, c := range p.Cands {
			times := make([]float64, nQ)
			for q := range times {
				times[q] = Infeasible
			}
			copy(times[pl.queryOff[i]:], c.Times)
			fg := 0
			if c.FactGroup > 0 {
				fg = factOff + c.FactGroup
				if c.FactGroup > maxGroup {
					maxGroup = c.FactGroup
				}
			}
			pp.Cands = append(pp.Cands, Candidate{
				Name:      fmt.Sprintf("t%d/%s", i, c.Name),
				Size:      c.Size,
				Times:     times,
				FactGroup: fg,
				Ref:       c.Ref,
			})
		}
		factOff += maxGroup
	}
	pl.P = pp
	return pl
}

// Lift maps per-problem candidate indexes into pooled indexes (the warm-
// start direction).
func (pl *Pooled) Lift(chosen [][]int) []int {
	var out []int
	for i, c := range chosen {
		if i >= len(pl.candOff) {
			break
		}
		for _, m := range c {
			out = append(out, pl.candOff[i]+m)
		}
	}
	return out
}

// Split maps a pooled solution's chosen indexes back to per-problem
// candidate indexes, ascending within each problem.
func (pl *Pooled) Split(sol *Solution) [][]int {
	out := make([][]int, len(pl.candOff))
	for _, m := range sol.Chosen {
		i := 0
		for i+1 < len(pl.candOff) && m >= pl.candOff[i+1] {
			i++
		}
		out[i] = insertSorted(out[i], m-pl.candOff[i])
	}
	return out
}

func insertSorted(s []int, v int) []int {
	s = append(s, v)
	for i := len(s) - 1; i > 0 && s[i-1] > s[i]; i-- {
		s[i-1], s[i] = s[i], s[i-1]
	}
	return s
}
