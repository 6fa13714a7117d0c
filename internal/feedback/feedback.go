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
	// Solve tunes the inner exact solver. Its MaxNodes caps the node
	// count of the whole design, every feedback round together, not each
	// solve (see RunBlocks).
	Solve ilp.SolveOptions

	// onSolve, settable only from this package's tests, sees every pooled
	// solve: its MaxNodes and its solution.
	onSolve func(maxNodes int, sol *ilp.Solution)
}

// Block is one selection problem of a shared-budget run: a fact table's
// (or tenant's) candidate generator, initial pool and per-query base
// runtimes. Warm objects (nil: cold) are matched into the first round's
// pool by structural key as the solver's warm start; every later round,
// cold or warm, warms from the block's previous share (the pool only
// grows, so it stays feasible).
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
	// solve the loop ran, and Proven whether the final solve proved
	// optimality over the final pool (the selection-cost telemetry
	// EXPERIMENTS.md tracks).
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
	prob, aligned, _ := buildProblem(g, designs, base, budget, nil)
	return prob, aligned
}

// buildProblem is BuildProblem with a warm set, which it returns mapped
// onto the kept pool. A warm design pruned as the twin of a survivor takes
// the survivor's place: twins are interchangeable to the solver, so the
// instance and its search are unchanged, and a solve keeps the incumbent's
// object rather than an equal copy that would cost a rebuild. A warm
// design pruned by a strict dominator is replaced in the warm set by that
// dominator, which is no larger and at least as fast. Either way pruning
// takes nothing from the warm incumbent a node-capped solve falls back on.
func buildProblem(g *candgen.Generator, designs []*costmodel.MVDesign, base []float64, budget int64, warm []*costmodel.MVDesign) (*ilp.Problem, []*costmodel.MVDesign, []*costmodel.MVDesign) {
	cands := make([]ilp.Candidate, len(designs))
	weights := make([]float64, len(g.W))
	for qi, q := range g.W {
		weights[qi] = q.EffectiveWeight()
	}
	par.ForEach(len(designs), func(i int) {
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
		warm = keepWarm(cands, designs, origIdx, kept, keptDesigns, warm)
	}
	prob := &ilp.Problem{Cands: kept, Base: base, Weights: weights, Budget: budget}
	return prob, keptDesigns, warm
}

// keepWarm maps each pruned warm design onto its survivor: it swaps the
// design in for a surviving non-warm twin, in place in kept and
// keptDesigns (aligned with origIdx), or replaces it in the returned warm
// set with a surviving dominator. A survivor that supersedes it always
// exists, since supersession is transitive.
func keepWarm(cands []ilp.Candidate, designs []*costmodel.MVDesign, origIdx []int, kept []ilp.Candidate, keptDesigns []*costmodel.MVDesign, warm []*costmodel.MVDesign) []*costmodel.MVDesign {
	isWarm := make(map[string]bool, len(warm))
	for _, d := range warm {
		isWarm[d.Key()] = true
	}
	survived := make([]bool, len(cands))
	for _, oi := range origIdx {
		survived[oi] = true
	}
	var dominator map[string]*costmodel.MVDesign
	for i, d := range designs {
		if survived[i] || !isWarm[d.Key()] {
			continue
		}
		k := slices.IndexFunc(kept, func(c ilp.Candidate) bool { return ilp.Twins(&c, &cands[i]) })
		if k >= 0 {
			if !isWarm[keptDesigns[k].Key()] {
				kept[k], keptDesigns[k] = cands[i], d
			}
			continue
		}
		k = slices.IndexFunc(kept, func(c ilp.Candidate) bool {
			return c.FactGroup == cands[i].FactGroup && ilp.Dominates(&c, &cands[i])
		})
		if k < 0 {
			continue
		}
		if dominator == nil {
			dominator = make(map[string]*costmodel.MVDesign)
		}
		dominator[d.Key()] = keptDesigns[k]
	}
	if dominator == nil {
		return warm
	}
	out := make([]*costmodel.MVDesign, len(warm))
	for i, d := range warm {
		if dom, ok := dominator[d.Key()]; ok {
			d = dom
		}
		out[i] = d
	}
	return out
}

// Run solves the ILP over the initial designs, then iterates feedback:
// RunBlocks over one cold block.
func Run(g *candgen.Generator, designs []*costmodel.MVDesign, base []float64, budget int64, cfg Config) *Result {
	return RunBlocks([]Block{{Gen: g, Designs: designs, Base: base}}, budget, cfg)[0]
}

// RunBlocks is the shared-budget design loop. Each round prices the
// blocks whose pools grew, pools every block's instance under the one
// budget (ilp.Pool), solves it once warm from the previous round's shares
// and splits the solution into per-block shares; each block's feedback
// candidates come from its own share alone. It stops when no block gains a
// candidate or after cfg.MaxIters rounds, and returns one Result per
// block.
//
// The rounds share one node cap (cfg.Solve.MaxNodes): an intermediate
// round only picks the columns to add, so those rounds together get at
// most half of it, and the final round, over the final pool, what is
// left. When feedback adds nothing after an intermediate round whose
// search was cut, that round's pool is final: it is solved again, warm
// from the cut round's shares, with the nodes left. Every round may expand
// at least one node, so Nodes stays within the cap whenever the cap is at
// least 2·MaxIters.
func RunBlocks(blocks []Block, budget int64, cfg Config) []*Result {
	maxIters := cfg.MaxIters
	if maxIters == 0 {
		maxIters = 4
	}
	growth := cfg.TGrowth
	if growth <= 0 {
		growth = 2
	}
	nodeCap := cfg.Solve.MaxNodes
	if nodeCap == 0 {
		nodeCap = ilp.DefaultMaxNodes
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
		res[i] = &Result{}
	}

	probs := make([]*ilp.Problem, len(blocks))
	warms := make([][]int, len(blocks))
	used, final := 0, false
	for iter := 0; ; iter++ {
		for i := range bs {
			b := &bs[i]
			if iter == 0 || b.added > 0 {
				res[i].Prob, res[i].Designs, b.Warm = buildProblem(b.Gen, b.Designs, b.Base, budget, b.Warm)
				probs[i] = res[i].Prob
			}
			warms[i] = warmIndexes(res[i].Designs, b.Warm)
		}
		final = final || iter >= maxIters
		pl := ilp.Pool(probs, budget)
		so := cfg.Solve
		so.WarmStart = pl.Lift(warms)
		so.MaxNodes = roundNodes(nodeCap, used, final)
		sol := ilp.Solve(pl.P, so)
		if cfg.onSolve != nil {
			cfg.onSolve(so.MaxNodes, sol)
		}
		used += sol.Nodes
		for i, share := range pl.Split(sol) {
			res[i].Sol = share
			res[i].Nodes = used
			res[i].Proven = sol.Proven
		}
		if final {
			break
		}

		added := 0
		for i := range bs {
			b := &bs[i]
			b.Warm = chosenDesigns(res[i]) // chain: this share warms the next round
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
			if sol.Proven {
				break
			}
			final = true // re-solve this pool with the nodes left
			continue
		}
		for _, r := range res {
			r.Iters = iter + 1
		}
	}
	return res
}

// roundNodes is one round's MaxNodes under a design's node cap (negative:
// unlimited), given the nodes earlier rounds used: intermediate rounds
// share the first half, the final round gets the rest. Every round may
// expand at least its root, which holds its warm or greedy incumbent.
func roundNodes(nodeCap, used int, final bool) int {
	if nodeCap < 0 {
		return nodeCap
	}
	left := nodeCap - used
	if !final {
		left = nodeCap/2 - used
	}
	return max(left, 1)
}

// warmIndexes maps warm designs to their candidate indexes in the aligned
// pool by MVDesign.Key, preserving warm order; unmatched designs
// (structures the pool never generated) are skipped.
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
