// Package feedback implements ILP Feedback (§6), the column-generation-
// inspired loop that grows the candidate pool from the previous ILP
// solution instead of enumerating the exponential design space up front:
//
//   - expand the query group of every chosen MV by each missing query
//     (helps tight budgets, where one shared MV should cover more queries);
//   - shrink the group of a chosen MV that is not actually serving some of
//     its queries (frees space);
//   - re-cluster chosen MVs with a doubled t (helps large budgets, where a
//     better clustered key is the remaining win);
//
// then re-solve, iterating until no new candidates appear or the iteration
// limit is reached. The loop runs over N blocks sharing one space budget
// (several fact tables, or tenants): every round solves the pooled
// instance once, and each block's feedback reads only its own share.
package feedback

import (
	"slices"
	"sort"

	"coradd/internal/candgen"
	"coradd/internal/costmodel"
	"coradd/internal/ilp"
	"coradd/internal/par"
)

// Config tunes the loop.
type Config struct {
	// MaxIters caps feedback iterations; 0 means 4 and a negative value
	// means none, the initial solve alone. (The paper's SSB run converged
	// in 2.)
	MaxIters int
	// TGrowth multiplies t on each re-clustering feedback; 0 means 2.
	TGrowth int
	// Solve tunes the inner exact solver.
	Solve ilp.SolveOptions
}

// Block is one selection problem of a shared-budget run: a fact table's
// (or tenant's) candidate generator, initial pool and per-query base
// runtimes. Warm objects (nil: cold) are matched into each round's pool by
// structural key as the solver's warm start; later rounds warm from the
// block's last share (the pool only grows, so it stays feasible).
type Block struct {
	Gen     *candgen.Generator
	Designs []*costmodel.MVDesign
	Base    []float64
	Warm    []*costmodel.MVDesign
}

// Result is one block's outcome of RunBlocks.
type Result struct {
	// Sol is the block's share of the final pooled solution over Designs.
	Sol *ilp.Solution
	// Prob is the block's final (pruned) problem; Sol.Chosen indexes
	// Prob.Cands.
	Prob *ilp.Problem
	// Designs are the final candidate designs, aligned with Prob.Cands.
	Designs []*costmodel.MVDesign
	// Iters is the number of feedback iterations performed (0 means the
	// initial solve was final).
	Iters int
	// Added is the number of candidates feedback contributed to the block.
	Added int
	// Nodes is the total branch-and-bound node count across every pooled
	// solve the loop ran, and Proven whether every one of them proved
	// optimality (the selection-cost telemetry EXPERIMENTS.md tracks).
	Nodes  int
	Proven bool
}

// BuildProblem prices every design against every query with the model in g
// and assembles the ILP instance. Dominated candidates and all but the
// first of each set of exact twins are pruned (§5.3, ilp.PruneDominated);
// the returned design slice is aligned with the problem's candidates.
// Candidate costing fans out across the worker pool — each candidate's
// pricing is independent and the models are race-safe — which is the
// dominant cost of large pools.
func BuildProblem(g *candgen.Generator, designs []*costmodel.MVDesign, base []float64, budget int64) (*ilp.Problem, []*costmodel.MVDesign) {
	return buildProblem(g, designs, base, budget, nil)
}

// buildProblem is BuildProblem with a warm set: a warm design pruned as
// the twin of a survivor takes the survivor's place. Twins are
// interchangeable to the solver, so the instance and its search are
// unchanged, while twin pruning takes nothing from the warm incumbent a
// node-capped solve falls back on, and a solve keeps the incumbent's
// object rather than an equal copy that would cost a rebuild.
func buildProblem(g *candgen.Generator, designs []*costmodel.MVDesign, base []float64, budget int64, warm []*costmodel.MVDesign) (*ilp.Problem, []*costmodel.MVDesign) {
	cands := make([]ilp.Candidate, len(designs))
	weights := make([]float64, len(g.W))
	for qi, q := range g.W {
		weights[qi] = q.EffectiveWeight()
	}
	par.ForEach(len(designs), 0, func(i int) {
		d := designs[i]
		times := make([]float64, len(g.W))
		for qi, q := range g.W {
			c, _ := g.Model.Estimate(d, q)
			times[qi] = c
		}
		fg := 0
		if d.FactRecluster || d.FactOverlay {
			// Re-clusterings and in-place fact overlays are mutually
			// exclusive per fact table: re-sorting the heap would invalidate
			// an overlay's learned mappings (condition 4 of §5.1, extended).
			// One group per instance: ilp.Pool offsets it per block.
			fg = 1
		}
		cands[i] = ilp.Candidate{
			Name:      d.Name,
			Size:      d.Bytes(g.St),
			Times:     times,
			FactGroup: fg,
			Ref:       d,
		}
	})
	kept, origIdx := ilp.PruneDominated(cands)
	keptDesigns := make([]*costmodel.MVDesign, len(kept))
	for i, oi := range origIdx {
		keptDesigns[i] = designs[oi]
	}
	if len(warm) > 0 && len(kept) < len(cands) {
		keepWarmTwins(cands, designs, origIdx, kept, keptDesigns, warm)
	}
	prob := &ilp.Problem{Cands: kept, Base: base, Weights: weights, Budget: budget}
	return prob, keptDesigns
}

// keepWarmTwins swaps each pruned warm design in for a surviving non-warm
// twin, in place in kept and keptDesigns (aligned with origIdx).
func keepWarmTwins(cands []ilp.Candidate, designs []*costmodel.MVDesign, origIdx []int, kept []ilp.Candidate, keptDesigns []*costmodel.MVDesign, warm []*costmodel.MVDesign) {
	isWarm := make(map[string]bool, len(warm))
	for _, d := range warm {
		isWarm[d.Key()] = true
	}
	survived := make([]bool, len(cands))
	for _, oi := range origIdx {
		survived[oi] = true
	}
	for i, d := range designs {
		if survived[i] || !isWarm[d.Key()] {
			continue
		}
		for k := range kept {
			if !isWarm[keptDesigns[k].Key()] && ilp.Twins(&kept[k], &cands[i]) {
				kept[k], keptDesigns[k] = cands[i], d
				break
			}
		}
	}
}

// Run solves the ILP over the initial designs, then iterates feedback:
// RunBlocks over one cold block.
func Run(g *candgen.Generator, designs []*costmodel.MVDesign, base []float64, budget int64, cfg Config) *Result {
	return RunBlocks([]Block{{Gen: g, Designs: designs, Base: base}}, budget, cfg)[0]
}

// RunBlocks is the shared-budget design loop. Each round prices the
// blocks whose pools grew, pools every block's instance under the one
// budget (ilp.Pool), solves it once and splits the solution into
// per-block shares; each block's feedback candidates come from its own
// share alone. It stops when no block gains a candidate or after
// cfg.MaxIters rounds, and returns one Result per block.
func RunBlocks(blocks []Block, budget int64, cfg Config) []*Result {
	maxIters := cfg.MaxIters
	if maxIters == 0 {
		maxIters = 4
	}
	growth := cfg.TGrowth
	if growth <= 0 {
		growth = 2
	}

	type block struct {
		Block // Designs is the growing pool, Warm the chained warm set
		seen  map[string]bool
		// groupT tracks the t already spent per query group so
		// re-clustering feedback escalates rather than repeats.
		groupT map[string]int
		added  int
	}
	bs := make([]block, len(blocks))
	res := make([]*Result, len(blocks))
	for i, b := range blocks {
		b.Designs = slices.Clone(b.Designs)
		bs[i] = block{Block: b, seen: make(map[string]bool, len(b.Designs)), groupT: make(map[string]int)}
		for _, d := range b.Designs {
			bs[i].seen[d.Key()] = true
		}
		res[i] = &Result{Proven: true}
	}

	probs := make([]*ilp.Problem, len(blocks))
	warms := make([][]int, len(blocks))
	for iter := 0; ; iter++ {
		for i, b := range bs {
			if iter == 0 || b.added > 0 {
				res[i].Prob, res[i].Designs = buildProblem(b.Gen, b.Designs, b.Base, budget, b.Warm)
				probs[i] = res[i].Prob
			}
			warms[i] = warmIndexes(res[i].Designs, b.Warm)
		}
		pl := ilp.Pool(probs, budget)
		so := cfg.Solve
		so.WarmStart = pl.Lift(warms)
		sol := ilp.Solve(pl.P, so)
		for i, share := range pl.Split(sol) {
			res[i].Sol = share
			res[i].Nodes += sol.Nodes
			res[i].Proven = res[i].Proven && sol.Proven
		}
		if iter >= maxIters {
			break
		}

		added := 0
		for i := range bs {
			b := &bs[i]
			if len(b.Warm) > 0 {
				b.Warm = chosenDesigns(res[i]) // chain: last solution warms the next
			}
			b.added = 0
			for _, d := range newCandidates(b.Gen, res[i], budget, b.groupT, growth) {
				if !b.seen[d.Key()] {
					b.seen[d.Key()] = true
					b.Designs = append(b.Designs, d)
					b.added++
				}
			}
			res[i].Added += b.added
			added += b.added
		}
		if added == 0 {
			break
		}
		for _, r := range res {
			r.Iters = iter + 1
		}
	}
	return res
}

// warmIndexes maps warm designs to their candidate indexes in the aligned
// pool by MVDesign.Key, preserving warm order; unmatched designs (pruned
// by dominance, or structures the new pool never generated) are skipped.
func warmIndexes(aligned []*costmodel.MVDesign, warm []*costmodel.MVDesign) []int {
	if len(warm) == 0 {
		return nil
	}
	byKey := make(map[string]int, len(aligned))
	for i, d := range aligned {
		if _, ok := byKey[d.Key()]; !ok {
			byKey[d.Key()] = i
		}
	}
	var out []int
	for _, d := range warm {
		if i, ok := byKey[d.Key()]; ok {
			out = append(out, i)
		}
	}
	return out
}

// chosenDesigns lists the designs of the result's chosen candidates.
func chosenDesigns(res *Result) []*costmodel.MVDesign {
	out := make([]*costmodel.MVDesign, len(res.Sol.Chosen))
	for i, ci := range res.Sol.Chosen {
		out[i] = res.Designs[ci]
	}
	return out
}

// newCandidates derives feedback candidates from one block's share of the
// current solution.
func newCandidates(g *candgen.Generator, res *Result, budget int64, groupT map[string]int, growth int) []*costmodel.MVDesign {
	var out []*costmodel.MVDesign
	for _, ci := range res.Sol.Chosen {
		d := res.Designs[ci]
		if d.FactRecluster || len(d.Queries) == 0 {
			continue
		}
		gkey := groupKey(d.Queries)
		t := groupT[gkey]
		if t == 0 {
			t = g.Cfg.T
		}

		// Expansion: add each query outside the group (§6.1, first source).
		inGroup := make(map[int]bool, len(d.Queries))
		for _, qi := range d.Queries {
			inGroup[qi] = true
		}
		for qi := range g.W {
			if inGroup[qi] {
				continue
			}
			grp := append(append([]int(nil), d.Queries...), qi)
			sort.Ints(grp)
			for _, nd := range g.GroupDesigns(grp, g.Cfg.T) {
				if nd.Bytes(g.St) <= budget {
					out = append(out, nd)
				}
			}
		}

		// Shrinking: drop group members the solution serves elsewhere.
		served := servedQueries(res, ci)
		if len(served) > 0 && len(served) < len(d.Queries) {
			for _, nd := range g.GroupDesigns(served, g.Cfg.T) {
				if nd.Bytes(g.St) <= budget {
					out = append(out, nd)
				}
			}
		}

		// Re-clustering with increased t (§6.1, second source).
		newT := t * growth
		groupT[gkey] = newT
		for _, nd := range g.GroupDesigns(d.Queries, newT) {
			if nd.Bytes(g.St) <= budget {
				out = append(out, nd)
			}
		}
	}
	return out
}

// servedQueries lists the group members of candidate ci that the solution
// actually routes to ci.
func servedQueries(res *Result, ci int) []int {
	d := res.Designs[ci]
	var out []int
	for _, qi := range d.Queries {
		if qi < len(res.Sol.PerQuery) && res.Sol.PerQuery[qi] == ci {
			out = append(out, qi)
		}
	}
	return out
}

func groupKey(group []int) string {
	b := make([]byte, 0, len(group)*2)
	for _, qi := range group {
		b = append(b, byte(qi), byte(qi>>8))
	}
	return string(b)
}
