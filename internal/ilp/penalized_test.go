package ilp

import (
	"math"
	"math/rand"
	"testing"
)

// brutePenalized enumerates every feasible subset and returns the minimal
// penalized value obj(S) + λ·size(S).
func brutePenalized(p *Problem, lambda float64) float64 {
	n := len(p.Cands)
	best := p.Objective(nil)
	for mask := 1; mask < (1 << n); mask++ {
		var chosen []int
		for m := 0; m < n; m++ {
			if mask&(1<<m) != 0 {
				chosen = append(chosen, m)
			}
		}
		if !p.Feasible(chosen) {
			continue
		}
		if v := p.Objective(chosen) + lambda*float64(p.SizeOf(chosen)); v < best {
			best = v
		}
	}
	return best
}

func TestSolvePenalizedMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(101))
	for trial := 0; trial < 60; trial++ {
		p := randomProblem(rng, 2+rng.Intn(8), 1+rng.Intn(5))
		lambda := rng.Float64() * 0.2
		want := brutePenalized(p, lambda)
		sol := SolvePenalized(p, lambda, SolveOptions{})
		if !sol.Proven {
			t.Fatalf("trial %d: not proven", trial)
		}
		got := sol.Objective + lambda*float64(sol.Size)
		if math.Abs(got-want) > 1e-9 {
			t.Fatalf("trial %d (λ=%.4f): penalized %.6f, brute force %.6f", trial, lambda, got, want)
		}
		if !p.Feasible(sol.Chosen) {
			t.Fatalf("trial %d: infeasible solution", trial)
		}
		if math.Abs(p.Objective(sol.Chosen)-sol.Objective) > 1e-12 {
			t.Fatalf("trial %d: Objective field disagrees with chosen set", trial)
		}
	}
}

// With λ = 0 SolvePenalized delegates to Solve and must agree with it.
func TestSolvePenalizedZeroLambdaMatchesSolve(t *testing.T) {
	rng := rand.New(rand.NewSource(103))
	for trial := 0; trial < 20; trial++ {
		p := randomProblem(rng, 2+rng.Intn(8), 1+rng.Intn(5))
		a := SolvePenalized(p, 0, SolveOptions{})
		b := Solve(p, SolveOptions{})
		if math.Abs(a.Objective-b.Objective) > 1e-12 {
			t.Fatalf("trial %d: λ=0 %.6f vs Solve %.6f", trial, a.Objective, b.Objective)
		}
	}
}

// Warm-started penalized solves keep the solution exact.
func TestSolvePenalizedWarmStart(t *testing.T) {
	rng := rand.New(rand.NewSource(107))
	for trial := 0; trial < 20; trial++ {
		p := randomProblem(rng, 4+rng.Intn(6), 2+rng.Intn(4))
		lambda := 0.01 + rng.Float64()*0.1
		cold := SolvePenalized(p, lambda, SolveOptions{})
		warm := SolvePenalized(p, lambda, SolveOptions{WarmStart: cold.Chosen})
		cv := cold.Objective + lambda*float64(cold.Size)
		wv := warm.Objective + lambda*float64(warm.Size)
		if math.Abs(cv-wv) > 1e-9 {
			t.Fatalf("trial %d: warm %.6f vs cold %.6f", trial, wv, cv)
		}
	}
}

// TestSolvePenalizedWarmNeverExploresMoreNodes extends the warm-start
// guarantee of TestWarmStartNeverExploresMoreNodes to λ > 0: seeding the
// penalized search with its own optimum never costs nodes, and helps on at
// least some instances the cold solve had to branch on.
func TestSolvePenalizedWarmNeverExploresMoreNodes(t *testing.T) {
	rng := rand.New(rand.NewSource(137))
	branched, strictWins := 0, 0
	for trial := 0; trial < 200; trial++ {
		p := hardRandomProblem(rng, 4+rng.Intn(14), 2+rng.Intn(6))
		lambda := 0.002 + rng.Float64()*0.05
		cold := SolvePenalized(p, lambda, SolveOptions{})
		warm := SolvePenalized(p, lambda, SolveOptions{WarmStart: cold.Chosen})
		if warm.Nodes > cold.Nodes {
			t.Fatalf("trial %d (λ=%.4f): warm solve explored %d nodes > cold %d", trial, lambda, warm.Nodes, cold.Nodes)
		}
		if cold.Nodes > 4 {
			branched++
			if warm.Nodes < cold.Nodes {
				strictWins++
			}
		}
	}
	if branched == 0 || strictWins == 0 {
		t.Errorf("optimum-seeded warm start reduced nodes on %d of %d branching instances", strictWins, branched)
	}
}
