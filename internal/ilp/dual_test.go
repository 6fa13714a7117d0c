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

// multiInstance builds N small problems sharing one global budget (each
// problem's own Budget is the global one, as internal/tenant sets it).
func multiInstance(rng *rand.Rand, n int) ([]*Problem, int64) {
	probs := make([]*Problem, n)
	var totalSize int64
	for i := range probs {
		probs[i] = randomProblem(rng, 2+rng.Intn(5), 1+rng.Intn(4))
		for _, c := range probs[i].Cands {
			totalSize += c.Size
		}
	}
	budget := totalSize / 3
	if budget < 1 {
		budget = 1
	}
	for _, p := range probs {
		p.Budget = budget
	}
	return probs, budget
}

// TestDualDecomposeBoundsOptimum is the decomposition's core property:
// against the monolithic exact solve of the pooled instance, the dual's
// feasible answer is an upper bound, its LowerBound a valid lower bound,
// and the optimum lies inside the reported gap.
func TestDualDecomposeBoundsOptimum(t *testing.T) {
	rng := rand.New(rand.NewSource(109))
	for trial := 0; trial < 30; trial++ {
		probs, budget := multiInstance(rng, 2+rng.Intn(3))
		ds := DualDecompose(probs, budget, DualOptions{})
		if !ds.Proven {
			t.Fatalf("trial %d: subproblem solves not proven", trial)
		}
		if ds.TotalSize > budget {
			t.Fatalf("trial %d: infeasible: size %d > budget %d", trial, ds.TotalSize, budget)
		}
		for i, p := range probs {
			if !p.Feasible(ds.Chosen[i]) {
				t.Fatalf("trial %d: tenant %d infeasible", trial, i)
			}
		}
		pooled := Pool(probs, budget)
		mono := Solve(pooled.P, SolveOptions{})
		if !mono.Proven {
			t.Fatalf("trial %d: monolithic solve not proven", trial)
		}
		opt := mono.Objective
		if ds.Objective < opt-1e-9 {
			t.Fatalf("trial %d: dual objective %.6f below optimum %.6f", trial, ds.Objective, opt)
		}
		if ds.LowerBound > opt+1e-9 {
			t.Fatalf("trial %d: lower bound %.6f above optimum %.6f", trial, ds.LowerBound, opt)
		}
		if ds.Objective-opt > ds.Gap+1e-9 {
			t.Fatalf("trial %d: optimum outside reported gap: obj %.6f opt %.6f gap %.6f",
				trial, ds.Objective, opt, ds.Gap)
		}
	}
}

// TestDualDecomposeDeterministicAcrossWorkers: bit-identical results at
// any par worker count — the satellite's determinism clause.
func TestDualDecomposeDeterministicAcrossWorkers(t *testing.T) {
	rng := rand.New(rand.NewSource(113))
	for trial := 0; trial < 10; trial++ {
		probs, budget := multiInstance(rng, 4)
		ref := DualDecompose(probs, budget, DualOptions{Workers: 1})
		for _, w := range []int{2, 4, 8} {
			got := DualDecompose(probs, budget, DualOptions{Workers: w})
			if got.Objective != ref.Objective || got.Lambda != ref.Lambda ||
				got.Iters != ref.Iters || got.Nodes != ref.Nodes ||
				got.LowerBound != ref.LowerBound {
				t.Fatalf("trial %d: workers=%d diverged: obj %v/%v λ %v/%v iters %d/%d nodes %d/%d",
					trial, w, got.Objective, ref.Objective, got.Lambda, ref.Lambda,
					got.Iters, ref.Iters, got.Nodes, ref.Nodes)
			}
			for i := range ref.Chosen {
				if len(got.Chosen[i]) != len(ref.Chosen[i]) {
					t.Fatalf("trial %d: workers=%d chosen sets differ for tenant %d", trial, w, i)
				}
				for j := range ref.Chosen[i] {
					if got.Chosen[i][j] != ref.Chosen[i][j] {
						t.Fatalf("trial %d: workers=%d chosen sets differ for tenant %d", trial, w, i)
					}
				}
			}
		}
	}
}

// TestDualDecomposeSlackBudget: when everything fits, the λ=0 probe is
// already optimal and the gap closes at zero in one iteration.
func TestDualDecomposeSlackBudget(t *testing.T) {
	rng := rand.New(rand.NewSource(127))
	probs, _ := multiInstance(rng, 3)
	var total int64
	for _, p := range probs {
		for _, c := range p.Cands {
			total += c.Size
		}
	}
	for _, p := range probs {
		p.Budget = total
	}
	ds := DualDecompose(probs, total, DualOptions{})
	if ds.Iters != 1 || ds.Gap != 0 || ds.Lambda != 0 {
		t.Fatalf("slack budget: want 1 iter, zero gap at λ=0; got iters=%d gap=%v λ=%v",
			ds.Iters, ds.Gap, ds.Lambda)
	}
}

// TestPoolSplitRoundTrip: the pooled instance preserves objectives, the
// block structure keeps cross-tenant candidates infeasible, and Split
// inverts Lift.
func TestPoolSplitRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(131))
	for trial := 0; trial < 20; trial++ {
		probs, budget := multiInstance(rng, 2+rng.Intn(3))
		pooled := Pool(probs, budget)
		sol := Solve(pooled.P, SolveOptions{})
		split := pooled.Split(sol)
		sum := 0.0
		for i, p := range probs {
			if !p.Feasible(split[i]) {
				t.Fatalf("trial %d: split tenant %d infeasible in its own problem", trial, i)
			}
			sum += p.Objective(split[i])
		}
		if math.Abs(sum-sol.Objective) > 1e-9 {
			t.Fatalf("trial %d: split objectives %.6f vs pooled %.6f", trial, sum, sol.Objective)
		}
		lifted := pooled.Lift(split)
		if len(lifted) != len(sol.Chosen) {
			t.Fatalf("trial %d: Lift(Split) cardinality %d vs %d", trial, len(lifted), len(sol.Chosen))
		}
		back := pooled.Split(&Solution{Chosen: lifted})
		for i := range split {
			if len(back[i]) != len(split[i]) {
				t.Fatalf("trial %d: Split(Lift(Split)) differs", trial)
			}
			for j := range split[i] {
				if back[i][j] != split[i][j] {
					t.Fatalf("trial %d: Split(Lift(Split)) differs", trial)
				}
			}
		}
	}
}
