package ilp

import (
	"math"
	"math/rand"
	"testing"
)

// TestWarmStartMatchesColdObjective: a warm-started solve proves the same
// optimum as a cold solve — the warm set only seeds the incumbent, never
// constrains the search — under every solver configuration.
func TestWarmStartMatchesColdObjective(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for trial := 0; trial < 150; trial++ {
		p := hardRandomProblem(rng, 2+rng.Intn(12), 1+rng.Intn(6))
		cold := Solve(p, SolveOptions{})
		// Warm sets of increasing quality: random junk, a feasible random
		// subset, and the actual optimum.
		warms := [][]int{
			{rng.Intn(len(p.Cands)), rng.Intn(len(p.Cands)), len(p.Cands) + 3, -1},
			nil,
			cold.Chosen,
		}
		for i := 0; i < len(p.Cands); i++ {
			if rng.Float64() < 0.5 {
				warms[1] = append(warms[1], i)
			}
		}
		for wi, warm := range warms {
			for _, opts := range []SolveOptions{
				{WarmStart: warm},
				{WarmStart: warm, noPreprocess: true},
				{WarmStart: warm, noPreprocess: true, noLagrangian: true, noPolish: true},
				{WarmStart: warm, Workers: 3},
			} {
				got := Solve(p, opts)
				if got.Proven != cold.Proven {
					t.Fatalf("trial %d warm %d: proven %v != cold %v", trial, wi, got.Proven, cold.Proven)
				}
				if math.Abs(got.Objective-cold.Objective) > 1e-9 {
					t.Fatalf("trial %d warm %d (%+v): objective %.12f != cold %.12f",
						trial, wi, opts, got.Objective, cold.Objective)
				}
				if !p.Feasible(got.Chosen) {
					t.Fatalf("trial %d warm %d: infeasible chosen %v", trial, wi, got.Chosen)
				}
				if ev := p.Objective(got.Chosen); ev != got.Objective {
					t.Fatalf("trial %d warm %d: reported %.12f != evaluated %.12f",
						trial, wi, got.Objective, ev)
				}
			}
		}
	}
}

// TestWarmStartNeverExploresMoreNodes is the adaptive loop's solver
// guarantee: seeding the search with any warm set explores at most as
// many nodes as the cold solve, and seeding with the known optimum
// strictly helps on instances the cold solve had to branch on.
func TestWarmStartNeverExploresMoreNodes(t *testing.T) {
	rng := rand.New(rand.NewSource(97))
	branched, strictWins := 0, 0
	for trial := 0; trial < 200; trial++ {
		p := hardRandomProblem(rng, 4+rng.Intn(14), 2+rng.Intn(6))
		cold := Solve(p, SolveOptions{})
		warm := Solve(p, SolveOptions{WarmStart: cold.Chosen})
		if warm.Nodes > cold.Nodes {
			t.Fatalf("trial %d: warm solve explored %d nodes > cold %d", trial, warm.Nodes, cold.Nodes)
		}
		// A partial (prefix) warm set must help no less than nothing.
		if len(cold.Chosen) > 1 {
			part := Solve(p, SolveOptions{WarmStart: cold.Chosen[:1]})
			if math.Abs(part.Objective-cold.Objective) > 1e-9 {
				t.Fatalf("trial %d: prefix warm objective %.12f != cold %.12f",
					trial, part.Objective, cold.Objective)
			}
		}
		if cold.Nodes > 4 {
			branched++
			if warm.Nodes < cold.Nodes {
				strictWins++
			}
		}
	}
	if branched > 0 && strictWins == 0 {
		t.Errorf("optimum-seeded warm start never reduced nodes on %d branching instances", branched)
	}
}

// TestWarmStartSurvivesPreprocessing: warm entries that preprocessing
// drops (oversize, dominated) or fixes are skipped, and the remainder
// still seeds a valid incumbent.
func TestWarmStartSurvivesPreprocessing(t *testing.T) {
	p := &Problem{
		Base:   []float64{10, 10},
		Budget: 100,
		Cands: []Candidate{
			{Name: "good", Size: 40, Times: []float64{2, 9}},
			{Name: "dominated", Size: 50, Times: []float64{3, 9}},
			{Name: "oversize", Size: 500, Times: []float64{1, 1}},
			{Name: "other", Size: 40, Times: []float64{9, 3}},
		},
	}
	s := Solve(p, SolveOptions{WarmStart: []int{2, 1, 0, 3}})
	if !s.Proven {
		t.Fatal("not proven")
	}
	cold := Solve(p, SolveOptions{})
	if s.Objective != cold.Objective {
		t.Fatalf("objective %v != cold %v", s.Objective, cold.Objective)
	}
	if !p.Feasible(s.Chosen) {
		t.Fatalf("infeasible chosen %v", s.Chosen)
	}
}

// TestWarmStartRespectsFactGroups: two warm entries from one fact group
// cannot both enter the incumbent.
func TestWarmStartRespectsFactGroups(t *testing.T) {
	p := &Problem{
		Base:   []float64{10, 10},
		Budget: 100,
		Cands: []Candidate{
			{Name: "fgA", Size: 10, Times: []float64{2, 10}, FactGroup: 1},
			{Name: "fgB", Size: 10, Times: []float64{10, 2}, FactGroup: 1},
			{Name: "mv", Size: 10, Times: []float64{10, 4}},
		},
	}
	s := Solve(p, SolveOptions{WarmStart: []int{0, 1, 2}})
	if !p.Feasible(s.Chosen) {
		t.Fatalf("warm-started solve returned infeasible set %v", s.Chosen)
	}
	cold := Solve(p, SolveOptions{})
	if s.Objective != cold.Objective {
		t.Fatalf("objective %v != cold %v", s.Objective, cold.Objective)
	}
}
