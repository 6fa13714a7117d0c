package ilp

import (
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"
)

// plainOptions is the seed-equivalent configuration: no preprocessing, no
// Lagrangian bound, no incumbent polish, no sole-server rule.
func plainOptions() SolveOptions {
	return SolveOptions{noPreprocess: true, noLagrangian: true, noPolish: true, noSoleServer: true}
}

// hardRandomProblem draws a selection instance whose budget actually
// binds: candidate sizes near the budget, fact groups, and a mix of
// infeasible pairs — the regime where preprocessing, the Lagrangian bound
// and the parallel decomposition all engage.
func hardRandomProblem(rng *rand.Rand, n, q int) *Problem {
	p := &Problem{Base: make([]float64, q)}
	for i := range p.Base {
		p.Base[i] = 5 + rng.Float64()*5
	}
	for m := 0; m < n; m++ {
		times := make([]float64, q)
		for i := range times {
			switch {
			case rng.Float64() < 0.4:
				times[i] = Infeasible
			default:
				times[i] = rng.Float64() * 12 // sometimes worse than base
			}
		}
		fg := 0
		if rng.Float64() < 0.25 {
			fg = 1 + rng.Intn(2)
		}
		p.Cands = append(p.Cands, Candidate{
			Name: "c", Size: int64(10 + rng.Intn(60)), Times: times, FactGroup: fg,
		})
	}
	// Tight budgets: roughly room for 2–5 average candidates.
	p.Budget = int64(60 + rng.Intn(140))
	if rng.Float64() < 0.3 {
		p.Weights = make([]float64, q)
		for i := range p.Weights {
			p.Weights[i] = 1 + rng.Float64()*9
		}
	}
	return p
}

// TestFullSolverMatchesPlain is the overhaul's core property: the
// preprocessed + Lagrangian-bounded + polished solver returns the same
// objective as the seed-equivalent plain solver on randomized problems,
// and the same chosen set when both prove optimality.
func TestFullSolverMatchesPlain(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for trial := 0; trial < 120; trial++ {
		p := hardRandomProblem(rng, 2+rng.Intn(12), 1+rng.Intn(6))
		plain := Solve(p, plainOptions())
		full := Solve(p, SolveOptions{})
		if plain.Proven != full.Proven {
			t.Fatalf("trial %d: proven mismatch plain=%v full=%v", trial, plain.Proven, full.Proven)
		}
		if math.Abs(plain.Objective-full.Objective) > 1e-9 {
			t.Fatalf("trial %d: objective plain=%.12f full=%.12f", trial, plain.Objective, full.Objective)
		}
		if !p.Feasible(full.Chosen) {
			t.Fatalf("trial %d: full solver returned infeasible set %v", trial, full.Chosen)
		}
		if got := p.Objective(full.Chosen); got != full.Objective {
			t.Fatalf("trial %d: reported objective %.12f != evaluated %.12f", trial, full.Objective, got)
		}
		if plain.Proven && full.Proven && !sameSet(plain.Chosen, full.Chosen) {
			// Distinct optima must at least tie exactly.
			if p.Objective(plain.Chosen) != p.Objective(full.Chosen) {
				t.Fatalf("trial %d: different non-tied optima plain=%v full=%v", trial, plain.Chosen, full.Chosen)
			}
		}
		if full.Nodes > plain.Nodes {
			t.Logf("trial %d: full explored more nodes (%d > %d)", trial, full.Nodes, plain.Nodes)
		}
	}
}

// TestFullSolverTightAndSlackBudgets pins the preprocessing edge cases:
// a budget nothing fits (empty optimum), and a budget everything fits
// (exclusion-free candidates are fixed, only fact groups searched).
func TestFullSolverTightAndSlackBudgets(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 60; trial++ {
		p := hardRandomProblem(rng, 2+rng.Intn(10), 1+rng.Intn(5))
		for _, budget := range []int64{0, 5, 1 << 40} {
			p.Budget = budget
			plain := Solve(p, plainOptions())
			full := Solve(p, SolveOptions{})
			if math.Abs(plain.Objective-full.Objective) > 1e-9 {
				t.Fatalf("trial %d budget=%d: objective plain=%.12f full=%.12f",
					trial, budget, plain.Objective, full.Objective)
			}
			if !p.Feasible(full.Chosen) {
				t.Fatalf("trial %d budget=%d: infeasible %v", trial, budget, full.Chosen)
			}
		}
	}
}

// TestInjectedTwinsChangeNothing inserts exact copies of random candidates
// into brute-forced instances, each somewhere after its original. Solve
// must still match enumeration, and return the twin-free instance's
// objective, chosen set (mapped to the originals' new indexes) and node
// count: the copies are pruned before the search, which then runs on the
// twin-free instance's candidates in their order.
func TestInjectedTwinsChangeNothing(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	copies := 0
	for trial := 0; trial < 80; trial++ {
		p := hardRandomProblem(rng, 3+rng.Intn(8), 1+rng.Intn(5))
		src := make([]int, len(p.Cands)) // twin instance index → original index
		for m := range src {
			src[m] = m
		}
		for k := 1 + rng.Intn(4); k > 0; k-- {
			orig := rng.Intn(len(p.Cands))
			at := 1 + slices.Index(src, orig) + rng.Intn(len(src)-slices.Index(src, orig))
			src = slices.Insert(src, at, orig)
			copies++
		}
		tw := *p
		tw.Cands = make([]Candidate, len(src))
		first := make([]int, len(p.Cands))
		for i := len(src) - 1; i >= 0; i-- {
			tw.Cands[i] = p.Cands[src[i]]
			tw.Cands[i].Times = slices.Clone(p.Cands[src[i]].Times)
			first[src[i]] = i
		}
		want := bruteForce(&tw)
		ref := Solve(p, SolveOptions{})
		got := Solve(&tw, SolveOptions{})
		if !got.Proven || math.Abs(got.Objective-want) > 1e-9 {
			t.Fatalf("trial %d: objective %.12f (proven %v), enumeration %.12f", trial, got.Objective, got.Proven, want)
		}
		mapped := make([]int, len(ref.Chosen))
		for i, m := range ref.Chosen {
			mapped[i] = first[m]
		}
		if got.Objective != ref.Objective || !reflect.DeepEqual(got.Chosen, mapped) || got.Nodes != ref.Nodes {
			t.Fatalf("trial %d: with twins (%v, %v, %d nodes), twin-free (%v, %v, %d nodes)",
				trial, got.Objective, got.Chosen, got.Nodes, ref.Objective, mapped, ref.Nodes)
		}
	}
	t.Logf("%d copies injected", copies)
}

// TestGreedyMatchesReference guards the optimized Greedy's bit-identical
// contract against a direct transcription of the original implementation.
func TestGreedyMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	for trial := 0; trial < 60; trial++ {
		p := hardRandomProblem(rng, 2+rng.Intn(20), 1+rng.Intn(6))
		seedM := 1 + rng.Intn(2)
		k := 0
		if rng.Float64() < 0.5 {
			k = 1 + rng.Intn(6)
		}
		got := Greedy(p, seedM, k)
		want := referenceGreedy(p, seedM, k)
		if !reflect.DeepEqual(got.Chosen, want.Chosen) {
			t.Fatalf("trial %d: chosen %v != reference %v", trial, got.Chosen, want.Chosen)
		}
		if got.Objective != want.Objective {
			t.Fatalf("trial %d: objective %v != reference %v", trial, got.Objective, want.Objective)
		}
	}
}

// referenceGreedy is the seed repository's Greedy, kept verbatim as the
// behavioural reference for the optimized implementation.
func referenceGreedy(p *Problem, seedM, k int) *Solution {
	if k <= 0 {
		k = len(p.Cands)
	}
	bestSeed := []int{}
	bestObj := p.Objective(nil)
	var rec func(start int, cur []int)
	rec = func(start int, cur []int) {
		if len(cur) > 0 {
			if p.Feasible(cur) {
				if obj := p.Objective(cur); obj < bestObj-1e-12 {
					bestObj = obj
					bestSeed = append([]int(nil), cur...)
				}
			} else {
				return
			}
		}
		if len(cur) == seedM {
			return
		}
		for m := start; m < len(p.Cands); m++ {
			rec(m+1, append(cur, m))
		}
	}
	rec(0, nil)

	chosen := append([]int(nil), bestSeed...)
	obj := p.Objective(chosen)
	for len(chosen) < k {
		bestM, bestNew := -1, obj
		for m := range p.Cands {
			if containsIdx(chosen, m) {
				continue
			}
			trial := append(append([]int(nil), chosen...), m)
			if !p.Feasible(trial) {
				continue
			}
			if o := p.Objective(trial); o < bestNew-1e-12 {
				bestNew = o
				bestM = m
			}
		}
		if bestM < 0 {
			break
		}
		chosen = append(chosen, bestM)
		obj = bestNew
	}
	sol := &Solution{Chosen: chosen, Objective: obj, Size: p.SizeOf(chosen), Proven: false}
	sol.PerQuery = perQueryRouting(p, chosen)
	return sol
}

func containsIdx(s []int, v int) bool {
	for _, x := range s {
		if x == v {
			return true
		}
	}
	return false
}

func sameSet(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	seen := make(map[int]bool, len(a))
	for _, x := range a {
		seen[x] = true
	}
	for _, x := range b {
		if !seen[x] {
			return false
		}
	}
	return true
}

// TestReduceFixesWhenEverythingFits pins the "fit any residual budget"
// rule: with the whole pool inside the budget, exclusion-free candidates
// are fixed and the search still returns the plain optimum.
func TestReduceFixesWhenEverythingFits(t *testing.T) {
	p := &Problem{
		Base: []float64{10, 10, 10},
		Cands: []Candidate{
			{Name: "a", Size: 10, Times: []float64{4, Infeasible, Infeasible}},
			{Name: "b", Size: 10, Times: []float64{Infeasible, 3, Infeasible}},
			{Name: "f1", Size: 10, Times: []float64{Infeasible, Infeasible, 5}, FactGroup: 1},
			{Name: "f2", Size: 12, Times: []float64{Infeasible, Infeasible, 4}, FactGroup: 1},
			{Name: "useless", Size: 10, Times: []float64{11, 12, 13}},
		},
		Budget: 1000,
	}
	red := reduce(p, 0, SolveOptions{})
	if len(red.forced) != 2 {
		t.Fatalf("forced = %v, want the two exclusion-free improving candidates", red.forced)
	}
	if len(red.p.Cands) != 2 {
		t.Fatalf("active = %d candidates, want the 2-member fact group", len(red.p.Cands))
	}
	sol := Solve(p, SolveOptions{})
	plain := Solve(p, plainOptions())
	if math.Abs(sol.Objective-plain.Objective) > 1e-12 {
		t.Fatalf("objective %.12f != plain %.12f", sol.Objective, plain.Objective)
	}
	if !sameSet(sol.Chosen, []int{0, 1, 3}) {
		t.Fatalf("chosen %v, want {a, b, f2}", sol.Chosen)
	}
}

// TestReduceDropsOversizedAndUseless pins the other preprocessing rules.
func TestReduceDropsOversizedAndUseless(t *testing.T) {
	p := &Problem{
		Base: []float64{10},
		Cands: []Candidate{
			{Name: "fits", Size: 10, Times: []float64{5}},
			{Name: "toobig", Size: 100, Times: []float64{1}},
			{Name: "useless", Size: 1, Times: []float64{10}},
			{Name: "dominated", Size: 20, Times: []float64{6}},
		},
		Budget: 50,
	}
	red := reduce(p, 0, SolveOptions{})
	// Only 'fits' survives the drops; since it fits the budget outright it
	// is then fixed, leaving nothing to search.
	if len(red.forced) != 1 || red.forced[0] != 0 {
		t.Fatalf("forced = %v, want ['fits']", red.forced)
	}
	if len(red.p.Cands) != 0 {
		t.Fatalf("%d active candidates remain, want 0", len(red.p.Cands))
	}
	sol := Solve(p, SolveOptions{})
	if len(sol.Chosen) != 1 || sol.Chosen[0] != 0 {
		t.Fatalf("chosen %v, want [0]", sol.Chosen)
	}
}

// TestDominanceFilterMatchesFullScan is the differential test of the
// bound lists' dominance filter: on randomized instances (λ = 0 with the
// Lagrangian bound tuned, λ > 0 with SolvePenalized's amortized order,
// and a few 300+-candidate pools) it drives the solver to random
// reachable states — a prefix of the branching order included or
// excluded within the budget — and requires every filtered scan, greedy
// and Lagrangian, to return the (contribution, pick) of a scan over the
// full list.
func TestDominanceFilterMatchesFullScan(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	armed, fullLen, keptLen := 0, 0, 0
	for trial := 0; trial < 160; trial++ {
		n := 2 + rng.Intn(40)
		if trial%20 == 0 {
			n = 300 + rng.Intn(100)
		}
		p := hardRandomProblem(rng, n, 1+rng.Intn(14))
		lambda := 0.0
		if trial%2 == 1 {
			lambda = rng.Float64() * 0.1
		}
		s := newSolver(p, orderByDensity(p), lambda)
		if lambda == 0 {
			s.lag = newLagrangian(p, s, Greedy(p, 2, len(p.Cands)).Objective)
		}
		full := cloneLists(s.perQ, s.perQCost)
		var lagFull []scanList[int32]
		if s.lag != nil {
			armed++
			lagFull = cloneLists(s.lag.perQ, s.lag.adj)
		}
		s.dropDominated()
		for q := range full {
			fullLen += len(full[q].ms)
			keptLen += len(s.perQ[q])
		}

		for state := 0; state < 20; state++ {
			pos := rng.Intn(len(s.order) + 1)
			cur := append([]float64(nil), p.Base...)
			used := int64(0)
			for i := range s.decided {
				s.decided[i] = 0
			}
			for _, m := range s.order[:pos] {
				c := &p.Cands[m]
				if used+c.Size <= p.Budget && rng.Intn(2) == 0 {
					s.decided[m] = 1
					used += c.Size
					for q, tc := range c.Times {
						cur[q] = math.Min(cur[q], tc)
					}
				} else {
					s.decided[m] = 2
				}
			}
			remaining := p.Budget - used
			for q := range cur {
				wCur := s.weights[q] * cur[q]
				gc, gp := s.boundQuery(q, cur[q], remaining)
				if wc, wp := full[q].scan(wCur, s.decided, s.sizes, remaining); gc != wc || gp != wp {
					t.Fatalf("trial %d λ=%g pos %d q %d: greedy filtered (%v, %d), full (%v, %d)", trial, lambda, pos, q, gc, gp, wc, wp)
				}
				if s.lag == nil {
					continue
				}
				lc, lp := s.lagQuery(q, wCur, remaining)
				if wc, wp := lagFull[q].scan(wCur, s.decided, s.sizes, remaining); lc != wc || lp != wp {
					t.Fatalf("trial %d pos %d q %d: Lagrangian filtered (%v, %d), full (%v, %d)", trial, pos, q, lc, lp, wc, wp)
				}
			}
		}
	}
	if armed == 0 || keptLen >= fullLen {
		t.Fatalf("vacuous: %d armed Lagrangian bounds, %d of %d greedy entries kept", armed, keptLen, fullLen)
	}
	t.Logf("%d armed Lagrangian bounds; %d of %d greedy entries kept", armed, keptLen, fullLen)
}

// scanList is one unfiltered per-query bound list, kept as the reference.
type scanList[M int | int32] struct {
	ms []M
	cs []float64
}

func cloneLists[M int | int32](ms [][]M, cs [][]float64) []scanList[M] {
	out := make([]scanList[M], len(ms))
	for q := range ms {
		out[q] = scanList[M]{append([]M(nil), ms[q]...), append([]float64(nil), cs[q]...)}
	}
	return out
}

// scan is the reference bound scan: the cheapest entry, earliest on ties,
// that is not excluded, fits the remaining budget and undercuts best.
func (l scanList[M]) scan(best float64, decided []int8, sizes []int64, remaining int64) (float64, int32) {
	pick := int32(-1)
	for r, m := range l.ms {
		if decided[m] != 2 && sizes[m] <= remaining && l.cs[r] < best {
			best, pick = l.cs[r], int32(m)
		}
	}
	return best, pick
}
