package ilp

import "fmt"

// Pooled is the block-diagonal instance over N selection problems that
// share one space budget: fact tables of one database or tenants of one
// host, solved exactly by Solve like any other instance. Queries and
// candidates concatenate; a candidate is Infeasible outside its own
// block's queries; fact-group ids are offset per block so re-clusterings
// of different blocks' fact tables never exclude each other. The pooled
// instance of one problem is that problem.
type Pooled struct {
	P        *Problem
	probs    []*Problem
	queryOff []int
	candOff  []int
}

// Pool builds the pooled instance under the shared budget.
func Pool(problems []*Problem, budget int64) *Pooled {
	pl := &Pooled{probs: problems, queryOff: make([]int, len(problems)), candOff: make([]int, len(problems))}
	if len(problems) == 1 {
		p := *problems[0]
		p.Budget = budget
		pl.P = &p
		return pl
	}
	nQ, nC := 0, 0
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

// Split maps a pooled solution back to one solution per problem: its
// chosen candidates in the pooled discovery order, and its routing, size
// and objective within that problem. Nodes and Proven are the pooled
// solve's. The one problem of a one-problem pool gets sol itself.
func (pl *Pooled) Split(sol *Solution) []*Solution {
	if len(pl.probs) == 1 {
		return []*Solution{sol}
	}
	chosen := make([][]int, len(pl.probs))
	for _, m := range sol.Chosen {
		i := len(pl.candOff) - 1
		for m < pl.candOff[i] {
			i--
		}
		chosen[i] = append(chosen[i], m-pl.candOff[i])
	}
	out := make([]*Solution, len(pl.probs))
	for i, p := range pl.probs {
		out[i] = &Solution{
			Chosen:    chosen[i],
			Objective: p.Objective(chosen[i]),
			Size:      p.SizeOf(chosen[i]),
			Proven:    sol.Proven,
			Nodes:     sol.Nodes,
			PerQuery:  perQueryRouting(p, chosen[i]),
		}
	}
	return out
}
