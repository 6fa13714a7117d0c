package ilp

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
	"time"
)

// table4Problem reproduces the paper's Table 4 dominance example: MV1
// dominates MV2 (slower on every shared query and larger) but not MV3
// (which uniquely answers Q2).
func table4Problem() []Candidate {
	return []Candidate{
		{Name: "MV1", Size: 1 << 30, Times: []float64{1, Infeasible, 1}},
		{Name: "MV2", Size: 2 << 30, Times: []float64{5, Infeasible, 2}},
		{Name: "MV3", Size: 3 << 30, Times: []float64{5, 5, 5}},
	}
}

func TestDominancePruningTable4(t *testing.T) {
	kept, orig := PruneDominated(table4Problem())
	if len(kept) != 2 {
		t.Fatalf("kept %d candidates, want 2", len(kept))
	}
	names := map[string]bool{}
	for _, c := range kept {
		names[c.Name] = true
	}
	if !names["MV1"] || !names["MV3"] || names["MV2"] {
		t.Errorf("kept %v, want MV1 and MV3", names)
	}
	if orig[0] != 0 || orig[1] != 2 {
		t.Errorf("original indexes = %v", orig)
	}
}

func TestDominanceIdenticalTwinsKeepOne(t *testing.T) {
	twins := []Candidate{
		{Name: "A", Size: 10, Times: []float64{1, Infeasible}},
		{Name: "B", Size: 10, Times: []float64{1, Infeasible}},
	}
	kept, orig := PruneDominated(twins)
	if len(kept) != 1 || kept[0].Name != "A" || orig[0] != 0 {
		t.Fatalf("kept %v (orig %v), want the first twin A at 0", kept, orig)
	}
}

// TestDominanceTwinCases pins the twin rule beside strict dominance: one
// survivor per chain of twins, none across fact groups, and a twin of a
// dominated candidate goes with it, whichever comes first.
func TestDominanceTwinCases(t *testing.T) {
	c := func(name string, size int64, fg int, times ...float64) Candidate {
		return Candidate{Name: name, Size: size, FactGroup: fg, Times: times}
	}
	for _, tc := range []struct {
		name  string
		cands []Candidate
		want  []int
	}{
		{"chain of three", []Candidate{c("A", 10, 0, 1, 2), c("B", 10, 0, 1, 2), c("C", 10, 0, 1, 2)}, []int{0}},
		{"chain after a distinct candidate", []Candidate{c("X", 5, 0, Infeasible, 1), c("A", 10, 0, 1, 2), c("B", 10, 0, 1, 2), c("C", 10, 0, 1, 2)}, []int{0, 1}},
		{"different fact groups", []Candidate{c("f1", 10, 1, 1), c("f2", 10, 2, 1), c("mv", 10, 0, 1)}, []int{0, 1, 2}},
		{"same fact group", []Candidate{c("f1", 10, 1, 1), c("f1'", 10, 1, 1)}, []int{0}},
		{"twin of a dominated candidate", []Candidate{c("D", 5, 0, 1, 1), c("B", 10, 0, 2, 2), c("C", 10, 0, 2, 2)}, []int{0}},
		{"dominator last", []Candidate{c("B", 10, 0, 2, 2), c("C", 10, 0, 2, 2), c("D", 5, 0, 1, 1)}, []int{2}},
		{"equal but not bitwise", []Candidate{c("+0", 10, 0, 0), c("-0", 10, 0, math.Copysign(0, -1))}, []int{0, 1}},
	} {
		kept, orig := PruneDominated(tc.cands)
		if !reflect.DeepEqual(orig, tc.want) {
			t.Errorf("%s: kept %v, want %v", tc.name, orig, tc.want)
		}
		for i, oi := range orig {
			if kept[i].Name != tc.cands[oi].Name {
				t.Errorf("%s: kept[%d] = %s, want %s", tc.name, i, kept[i].Name, tc.cands[oi].Name)
			}
		}
		// The solver's preprocessing applies the same rule.
		p := &Problem{Cands: tc.cands, Base: make([]float64, len(tc.cands[0].Times)), Budget: 12}
		for q := range p.Base {
			p.Base[q] = 100
		}
		red := reduce(p, 0.001, SolveOptions{})
		if got := red.active; !reflect.DeepEqual(got, tc.want) && !(got == nil && len(tc.want) == len(tc.cands)) {
			t.Errorf("%s: reduce kept %v, want %v", tc.name, got, tc.want)
		}
	}
}

func TestDominanceRespectsFactGroups(t *testing.T) {
	cands := []Candidate{
		{Name: "fact0", Size: 10, Times: []float64{1}, FactGroup: 1},
		{Name: "mv", Size: 20, Times: []float64{2}},
	}
	kept, _ := PruneDominated(cands)
	if len(kept) != 2 {
		t.Errorf("cross-group pruning happened: kept %d", len(kept))
	}
}

// bruteForce finds the optimal subset by enumeration.
func bruteForce(p *Problem) float64 {
	n := len(p.Cands)
	best := p.Objective(nil)
	for mask := 1; mask < 1<<n; mask++ {
		var chosen []int
		for m := 0; m < n; m++ {
			if mask&(1<<m) != 0 {
				chosen = append(chosen, m)
			}
		}
		if !p.Feasible(chosen) {
			continue
		}
		if obj := p.Objective(chosen); obj < best {
			best = obj
		}
	}
	return best
}

func randomProblem(rng *rand.Rand, n, q int) *Problem {
	p := &Problem{Base: make([]float64, q)}
	for i := range p.Base {
		p.Base[i] = 5 + rng.Float64()*5
	}
	for m := 0; m < n; m++ {
		times := make([]float64, q)
		for i := range times {
			if rng.Float64() < 0.5 {
				times[i] = Infeasible
			} else {
				times[i] = rng.Float64() * 10
			}
		}
		fg := 0
		if rng.Float64() < 0.3 {
			fg = 1 + rng.Intn(2)
		}
		p.Cands = append(p.Cands, Candidate{
			Name: "c", Size: int64(1 + rng.Intn(100)), Times: times, FactGroup: fg,
		})
	}
	p.Budget = int64(50 + rng.Intn(200))
	return p
}

// TestSolveMatchesBruteForce is the solver's core correctness property.
func TestSolveMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 60; trial++ {
		p := randomProblem(rng, 2+rng.Intn(9), 1+rng.Intn(5))
		want := bruteForce(p)
		sol := Solve(p, SolveOptions{})
		if !sol.Proven {
			t.Fatalf("trial %d: solver did not prove optimality", trial)
		}
		if math.Abs(sol.Objective-want) > 1e-9 {
			t.Fatalf("trial %d: solver %.6f, brute force %.6f", trial, sol.Objective, want)
		}
		if !p.Feasible(sol.Chosen) {
			t.Fatalf("trial %d: infeasible solution", trial)
		}
	}
}

func TestSolveRespectsFactGroups(t *testing.T) {
	p := &Problem{
		Base: []float64{10},
		Cands: []Candidate{
			{Name: "f1", Size: 1, Times: []float64{5}, FactGroup: 1},
			{Name: "f2", Size: 1, Times: []float64{4}, FactGroup: 1},
		},
		Budget: 10,
	}
	sol := Solve(p, SolveOptions{})
	if len(sol.Chosen) != 1 {
		t.Errorf("chose %d re-clusterings of one fact table", len(sol.Chosen))
	}
	if math.Abs(sol.Objective-4) > 1e-9 {
		t.Errorf("objective = %v, want 4", sol.Objective)
	}
}

func TestGreedyNeverBeatsExact(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		p := randomProblem(rng, 2+rng.Intn(8), 1+rng.Intn(4))
		exact := Solve(p, SolveOptions{})
		greedy := Greedy(p, 2, 0)
		return greedy.Objective >= exact.Objective-1e-9 && p.Feasible(greedy.Chosen)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestGreedySeedExhaustive(t *testing.T) {
	// A case where pure greedy fails but an m=2 seed wins: two candidates
	// that only pay off together.
	p := &Problem{
		Base: []float64{10, 10},
		Cands: []Candidate{
			{Name: "half1", Size: 5, Times: []float64{9.99, Infeasible}},
			{Name: "pair_a", Size: 5, Times: []float64{1, Infeasible}},
			{Name: "pair_b", Size: 5, Times: []float64{Infeasible, 1}},
		},
		Budget: 10,
	}
	sol := Greedy(p, 2, 0)
	if math.Abs(sol.Objective-2) > 1e-9 {
		t.Errorf("Greedy(2,k) objective = %v, want 2 via the pair seed", sol.Objective)
	}
}

func TestPerQueryRouting(t *testing.T) {
	p := &Problem{
		Base: []float64{10, 10},
		Cands: []Candidate{
			{Name: "a", Size: 1, Times: []float64{1, Infeasible}},
			{Name: "b", Size: 1, Times: []float64{2, 20}},
		},
		Budget: 10,
	}
	sol := Solve(p, SolveOptions{})
	if sol.PerQuery[0] != 0 {
		t.Errorf("query 0 routed to %d, want 0", sol.PerQuery[0])
	}
	if sol.PerQuery[1] != -1 {
		t.Errorf("query 1 routed to %d, want base (-1): candidate b is slower than base", sol.PerQuery[1])
	}
}

func TestWeightsChangeChoice(t *testing.T) {
	p := &Problem{
		Base: []float64{10, 10},
		Cands: []Candidate{
			{Name: "forQ0", Size: 10, Times: []float64{1, Infeasible}},
			{Name: "forQ1", Size: 10, Times: []float64{Infeasible, 2}},
		},
		Budget: 10, // only one fits
	}
	p.Weights = []float64{1, 100}
	sol := Solve(p, SolveOptions{})
	if len(sol.Chosen) != 1 || p.Cands[sol.Chosen[0]].Name != "forQ1" {
		t.Errorf("weighting ignored: chose %v", sol.Chosen)
	}
}

func TestTimeLimitReturnsIncumbent(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	p := randomProblem(rng, 60, 20)
	sol := Solve(p, SolveOptions{TimeLimit: time.Microsecond, MaxNodes: 2000})
	if sol == nil || !p.Feasible(sol.Chosen) {
		t.Fatal("limited solve returned no feasible incumbent")
	}
}

// TestInterruptDeterministicCutoff pins the deterministic-deadline
// contract: an Interrupt predicate keyed on node count cuts the search at
// the identical node on every run, returning a feasible unproven
// incumbent, and two interrupted solves of the same instance are
// bit-identical — the property wall-clock TimeLimit cannot offer, and the
// one internal/fault relies on to inject solve timeouts replayably.
func TestInterruptDeterministicCutoff(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	p := randomProblem(rng, 60, 20)
	full := Solve(p, SolveOptions{})
	if !full.Proven || full.Nodes < 100 {
		t.Skipf("instance too easy to interrupt (%d nodes)", full.Nodes)
	}
	cut := func() *Solution {
		return Solve(p, SolveOptions{Interrupt: func(nodes int) bool { return nodes >= full.Nodes/4 }})
	}
	a, b := cut(), cut()
	if a == nil || !p.Feasible(a.Chosen) {
		t.Fatal("interrupted solve returned no feasible incumbent")
	}
	if a.Proven {
		t.Error("interrupted solve claimed a proven optimum")
	}
	if a.Objective != b.Objective || a.Nodes != b.Nodes || !sameSet(a.Chosen, b.Chosen) {
		t.Errorf("interrupted solves diverged: (%v,%d,%v) vs (%v,%d,%v)",
			a.Objective, a.Nodes, a.Chosen, b.Objective, b.Nodes, b.Chosen)
	}
	if a.Objective < full.Objective-1e-12 {
		t.Errorf("interrupted objective %v beats the proven optimum %v", a.Objective, full.Objective)
	}
}

func TestObjectiveAndSizeHelpers(t *testing.T) {
	p := &Problem{
		Base: []float64{10},
		Cands: []Candidate{
			{Size: 3, Times: []float64{4}},
			{Size: 4, Times: []float64{6}},
		},
		Budget: 10,
	}
	if got := p.Objective([]int{0, 1}); got != 4 {
		t.Errorf("Objective = %v", got)
	}
	if got := p.SizeOf([]int{0, 1}); got != 7 {
		t.Errorf("SizeOf = %v", got)
	}
	if p.Feasible([]int{0, 1}) != true {
		t.Error("Feasible within budget")
	}
	p.Budget = 5
	if p.Feasible([]int{0, 1}) {
		t.Error("Feasible over budget")
	}
}
