package ilp

import (
	"cmp"
	"math"
	"math/rand"
	"slices"
	"testing"
)

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

// point is one selection's (size, objective).
type point struct {
	size int64
	obj  float64
}

// paretoFront enumerates every subset of p feasible in p itself and keeps
// the non-dominated (size, objective) points.
func paretoFront(p *Problem) []point {
	var all []point
	for mask := 0; mask < 1<<len(p.Cands); mask++ {
		var chosen []int
		for m := range p.Cands {
			if mask&(1<<m) != 0 {
				chosen = append(chosen, m)
			}
		}
		if p.Feasible(chosen) {
			all = append(all, point{p.SizeOf(chosen), p.Objective(chosen)})
		}
	}
	return front(all)
}

// front keeps the Pareto front of ps: size ascending, objective strictly
// descending.
func front(ps []point) []point {
	slices.SortFunc(ps, func(a, b point) int {
		if c := cmp.Compare(a.size, b.size); c != 0 {
			return c
		}
		return cmp.Compare(a.obj, b.obj)
	})
	var out []point
	for _, e := range ps {
		if len(out) == 0 || e.obj < out[len(out)-1].obj {
			out = append(out, e)
		}
	}
	return out
}

// bruteJoint is the joint optimum of N problems under one shared budget,
// by exhaustive enumeration: every problem's feasible selections combined
// by Pareto merge, exact because the problems interact only through the
// budget.
func bruteJoint(probs []*Problem, budget int64) float64 {
	acc := []point{{0, 0}}
	for _, p := range probs {
		var next []point
		for _, a := range acc {
			for _, b := range paretoFront(p) {
				if a.size+b.size <= budget {
					next = append(next, point{a.size + b.size, a.obj + b.obj})
				}
			}
		}
		acc = front(next)
	}
	return acc[len(acc)-1].obj
}

// TestPooledMatchesBruteForce is the shared-budget selection's core
// property: splitting the exact solve of the pooled instance gives every
// problem a selection feasible in its own instance, within the shared
// budget jointly, at the joint optimum found by enumeration — and each
// share reports its own routing, size and objective: the pooled
// solution's routing restricted to the problem's query block, and the
// size and objective enumeration assigns that selection in the problem.
func TestPooledMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(109))
	for trial := 0; trial < 30; trial++ {
		probs, budget := multiInstance(rng, 2+rng.Intn(3))
		pooled := Pool(probs, budget)
		sol := Solve(pooled.P, SolveOptions{})
		if !sol.Proven {
			t.Fatalf("trial %d: pooled solve not proven", trial)
		}
		split := pooled.Split(sol)
		sum, size := 0.0, int64(0)
		for i, p := range probs {
			share := split[i]
			if !p.Feasible(share.Chosen) {
				t.Fatalf("trial %d: tenant %d infeasible in its own problem", trial, i)
			}
			if share.Size != p.SizeOf(share.Chosen) || share.Objective != p.Objective(share.Chosen) {
				t.Fatalf("trial %d: tenant %d share reports size %d objective %.6f, its selection has %d / %.6f",
					trial, i, share.Size, share.Objective, p.SizeOf(share.Chosen), p.Objective(share.Chosen))
			}
			if share.Nodes != sol.Nodes || share.Proven != sol.Proven {
				t.Fatalf("trial %d: tenant %d share lost the pooled telemetry", trial, i)
			}
			for q, m := range share.PerQuery {
				want := sol.PerQuery[pooled.queryOff[i]+q]
				if want >= 0 {
					want -= pooled.candOff[i]
				}
				if m != want {
					t.Fatalf("trial %d: tenant %d query %d routed to %d, the pooled solution to %d", trial, i, q, m, want)
				}
			}
			sum += share.Objective
			size += share.Size
		}
		if size > budget {
			t.Fatalf("trial %d: split uses %d > shared budget %d", trial, size, budget)
		}
		if want := bruteJoint(probs, budget); math.Abs(sum-want) > 1e-9 {
			t.Fatalf("trial %d: split objective %.6f, joint optimum %.6f", trial, sum, want)
		}
	}
}

// TestPoolOfOneIsTheProblem: pooling one problem adds nothing — the
// pooled instance is the problem under the shared budget and its
// solution is the problem's, unchanged.
func TestPoolOfOneIsTheProblem(t *testing.T) {
	rng := rand.New(rand.NewSource(151))
	probs, budget := multiInstance(rng, 1)
	pooled := Pool(probs, budget)
	if &pooled.P.Cands[0] != &probs[0].Cands[0] || pooled.P.Budget != budget {
		t.Fatal("the pooled instance of one problem is not that problem")
	}
	sol := Solve(pooled.P, SolveOptions{})
	if split := pooled.Split(sol); len(split) != 1 || split[0] != sol {
		t.Fatal("the one share of a one-problem pool is not the pooled solution")
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
		split := make([][]int, len(probs))
		for i, share := range pooled.Split(sol) {
			split[i] = share.Chosen
		}
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
		for i, share := range pooled.Split(&Solution{Chosen: lifted}) {
			if !slices.Equal(share.Chosen, split[i]) {
				t.Fatalf("trial %d: Split(Lift(Split)) differs", trial)
			}
		}
	}
}
