package ilp

import (
	"math"
	"math/rand"
	"slices"
	"testing"
)

// idleMembers lists the chosen candidates that own no query: none of them
// serves some query strictly faster than the base and every other member.
func idleMembers(p *Problem, chosen []int) []int {
	var idle []int
	for _, k := range chosen {
		owns := false
		for q := 0; q < p.numQueries() && !owns; q++ {
			t := p.Cands[k].Times[q]
			owns = t < p.Base[q]
			for _, j := range chosen {
				if j != k && p.Cands[j].Times[q] <= t {
					owns = false
					break
				}
			}
		}
		if !owns {
			idle = append(idle, k)
		}
	}
	return idle
}

// tiedProblem is hardRandomProblem with ties and twins worked in: some
// candidates copy a few of another's times (equal-speed servers of one
// query, which no member owns) and some are exact copies of another.
func tiedProblem(rng *rand.Rand, n, nQ int) *Problem {
	p := hardRandomProblem(rng, n, nQ)
	for m := range p.Cands {
		src := &p.Cands[rng.Intn(len(p.Cands))]
		switch r := rng.Float64(); {
		case r < 0.15:
			p.Cands[m].Times = slices.Clone(src.Times)
			p.Cands[m].Size, p.Cands[m].FactGroup = src.Size, src.FactGroup
		case r < 0.6:
			for q := range p.Cands[m].Times {
				if rng.Float64() < 0.4 {
					p.Cands[m].Times[q] = src.Times[q]
				}
			}
		}
	}
	return p
}

// TestSoleServerRuleKeepsOptimum: on enumerated instances with ties, fact
// groups, twins and size penalties, the search with the sole-server rule
// proves the enumerated optimum and the objective of the search without
// the rule, and every set it adopts has each member owning a query. (A
// greedy or warm incumbent the search never beats, and the candidates
// preprocessing fixes, are returned as they are.)
func TestSoleServerRuleKeepsOptimum(t *testing.T) {
	rng := rand.New(rand.NewSource(4711))
	nodes, refNodes, searched := 0, 0, 0
	for trial := 0; trial < 600; trial++ {
		p := tiedProblem(rng, 4+rng.Intn(11), 2+rng.Intn(6))
		lambda := 0.0
		if trial%3 == 2 {
			lambda = rng.Float64() * 0.1
		}
		for _, opts := range []SolveOptions{{}, {noPreprocess: true, noLagrangian: true, noPolish: true}} {
			ref := opts
			ref.noSoleServer = true
			got := SolvePenalized(p, lambda, opts)
			want := SolvePenalized(p, lambda, ref)
			enum := brutePenalized(p, lambda)
			val := got.Objective + lambda*float64(got.Size)
			if !got.Proven || math.Abs(val-enum) > 1e-9 {
				t.Fatalf("trial %d λ=%.4f: value %.12f (proven %v), enumeration %.12f", trial, lambda, val, got.Proven, enum)
			}
			if !p.Feasible(got.Chosen) || p.Objective(got.Chosen) != got.Objective {
				t.Fatalf("trial %d: chosen %v infeasible or mispriced", trial, got.Chosen)
			}
			if lambda == 0 && got.Objective != want.Objective {
				t.Fatalf("trial %d: objective %v with the rule, %v without", trial, got.Objective, want.Objective)
			}
			nodes += got.Nodes
			refNodes += want.Nodes
			// Without preprocessing, a solve that adopted a set returns
			// the search's own set, with no fixed candidates beside it.
			if opts.noPreprocess && got.IncumbentUpdates > 0 {
				searched++
				if idle := idleMembers(p, got.Chosen); len(idle) > 0 {
					t.Fatalf("trial %d λ=%.4f: searched set %v has members %v that serve no query alone", trial, lambda, got.Chosen, idle)
				}
			}
		}
	}
	// A skipped branch can hold a set that ties the optimum and would
	// have pruned earlier, so one search may grow; the total may not.
	if nodes >= refNodes {
		t.Fatalf("%d nodes with the rule, %d without", nodes, refNodes)
	}
	if searched == 0 {
		t.Fatal("no solve adopted a set of its own search")
	}
	t.Logf("%d nodes with the rule, %d without; %d searched sets checked", nodes, refNodes, searched)
}

// TestGoldenOptimaServeEveryMember: every proven optimum of the golden
// instances leaves each chosen object owning a query, so no object is
// built for nothing.
func TestGoldenOptimaServeEveryMember(t *testing.T) {
	for inst, p := range goldenProblems() {
		sol := Solve(p, SolveOptions{})
		if !sol.Proven {
			t.Fatalf("inst %d: not proven", inst)
		}
		if idle := idleMembers(p, sol.Chosen); len(idle) > 0 {
			t.Fatalf("inst %d: chosen %v has members %v that serve no query alone", inst, sol.Chosen, idle)
		}
	}
}
