package ilp

import (
	"math"
)

// PruneDominated removes dominated candidates (§5.3): m is dominated by m'
// when size(m') ≤ size(m) and, for every query m can serve, m' serves it at
// least as fast, strictly on size or some query; of a set of exact twins
// (Twins) only the first copy survives. Returns the surviving candidates
// and their original indexes. Fact-group candidates are only compared
// within their group so the at-most-one constraint stays meaningful.
func PruneDominated(cands []Candidate) (kept []Candidate, origIdx []int) {
	n := len(cands)
	dominated := make([]bool, n)
	for i := 0; i < n; i++ {
		if dominated[i] {
			continue
		}
		for j := 0; j < n; j++ {
			if i == j || dominated[j] || dominated[i] {
				continue
			}
			if cands[i].FactGroup != cands[j].FactGroup {
				continue
			}
			if supersedes(cands, j, i) {
				dominated[i] = true
			}
		}
	}
	for i := 0; i < n; i++ {
		if !dominated[i] {
			kept = append(kept, cands[i])
			origIdx = append(origIdx, i)
		}
	}
	return kept, origIdx
}

// supersedes reports whether candidate a removes candidate b from the
// pool: a dominates b, or a is b's twin at a lower index. The relation is
// a strict partial order (irreflexive and transitive), so among any set of
// mutual twins exactly the first survives, and a witness that is itself
// removed is superseded by a survivor that also supersedes b.
func supersedes(cands []Candidate, a, b int) bool {
	return Dominates(&cands[a], &cands[b]) || (a < b && Twins(&cands[a], &cands[b]))
}

// Dominates reports whether a dominates b: a is no larger, serves every
// query b serves, at least as fast, and is strictly better on size or some
// query. Twins dominate neither way; supersedes breaks their tie by index.
// (Fact groups are the caller's to compare.)
func Dominates(a, b *Candidate) bool {
	if a.Size > b.Size {
		return false
	}
	strict := a.Size < b.Size
	for q := range b.Times {
		bt := b.Times[q]
		if math.IsInf(bt, 1) {
			continue
		}
		at := a.Times[q]
		if at > bt {
			return false
		}
		if at < bt {
			strict = true
		}
	}
	return strict
}

// Twins reports whether a and b are interchangeable to the solver: equal
// Size, equal FactGroup and bitwise-equal Times. Swapping one for the
// other in any selection changes neither its objective, its size nor its
// fact-group feasibility, so keeping only the first copy is exact.
func Twins(a, b *Candidate) bool {
	if a.Size != b.Size || a.FactGroup != b.FactGroup || len(a.Times) != len(b.Times) {
		return false
	}
	for q, at := range a.Times {
		if math.Float64bits(at) != math.Float64bits(b.Times[q]) {
			return false
		}
	}
	return true
}

// reduction records how preprocessing shrank a problem: the reduced
// problem the search actually runs on, the surviving candidates' original
// indexes, and the candidates fixed into every solution.
type reduction struct {
	// p is the problem the search runs on (== the original when nothing
	// was reduced).
	p *Problem
	// active[i] is the original index of reduced candidate i; nil means
	// the identity mapping.
	active []int
	// forced are original indexes fixed into the solution (their times are
	// folded into p.Base and their sizes subtracted from p.Budget).
	forced []int
}

// reduce applies the budget-aware preprocessing pass before search:
//
//  1. drop candidates larger than the whole budget (they can never be
//     chosen);
//  2. drop candidates that improve no query over base (the search would
//     never include them — dfs only takes improving includes) or, under
//     SolvePenalized's λ > 0, whose solo benefit over base does not exceed
//     λ·size (submodularity: they can never pay their penalty);
//  3. drop candidates dominated by a same-group, same-or-smaller, at
//     least-as-fast survivor (§5.3; a dominated candidate is never
//     *necessary*: swapping in its dominator keeps feasibility and never
//     raises the objective, so an optimum without it always exists), and
//     every exact twin but the first (supersedes);
//  4. when every surviving candidate fits the budget simultaneously — the
//     per-candidate "fits any residual budget" condition size(m) ≤ B −
//     Σ_{j≠m} size(j) is equivalent to Σ size ≤ B, so it holds for all
//     survivors or none — fix every exclusion-free survivor (and every
//     sole member of its fact group): the objective is monotone
//     non-increasing in added candidates, so including them can only
//     help. Only multi-member fact groups remain to search. Skipped for
//     λ > 0, where an added candidate costs its penalty.
//
// Folding fixed candidates into Base and searching the remainder yields
// bit-identical objective values: min() is exact, and the weighted sum
// stays in query order.
func reduce(p *Problem, lambda float64, opts SolveOptions) *reduction {
	if opts.noPreprocess || len(p.Cands) == 0 {
		return &reduction{p: p}
	}
	n := len(p.Cands)
	nQ := p.numQueries()
	drop := make([]bool, n)

	// Steps 1–2: budget and usefulness filters.
	for m := range p.Cands {
		c := &p.Cands[m]
		if c.Size > p.Budget {
			drop[m] = true
			continue
		}
		improves, solo := false, 0.0
		for q := 0; q < nQ; q++ {
			if t := c.Times[q]; t < p.Base[q] {
				improves = true
				solo += p.weight(q) * (p.Base[q] - t)
			}
		}
		if !improves || (lambda > 0 && solo <= lambda*float64(c.Size)) {
			drop[m] = true
		}
	}

	// Step 3: dominance among survivors. A dominator of m must be finite
	// on every query m serves, so it appears in the server list of any one
	// of them; scanning m's shortest server list finds every possible
	// dominator without the full O(n²) sweep. (Dominators are sought among
	// survivors only: a dominator of a surviving candidate survives steps
	// 1–2 itself — it is no larger and at least as fast wherever m
	// improves.)
	servers := make([][]int, nQ)
	for m := 0; m < n; m++ {
		if drop[m] {
			continue
		}
		for q := 0; q < nQ; q++ {
			if p.Cands[m].Times[q] < Infeasible {
				servers[q] = append(servers[q], m)
			}
		}
	}
	for m := 0; m < n; m++ {
		if drop[m] {
			continue
		}
		qBest := -1
		for q := 0; q < nQ; q++ {
			if p.Cands[m].Times[q] < Infeasible {
				if qBest < 0 || len(servers[q]) < len(servers[qBest]) {
					qBest = q
				}
			}
		}
		if qBest < 0 {
			continue
		}
		for _, a := range servers[qBest] {
			if a == m || p.Cands[a].FactGroup != p.Cands[m].FactGroup {
				continue
			}
			// Supersession is transitive, so a dropped witness is fine:
			// whatever superseded it also supersedes m.
			if supersedes(p.Cands, a, m) {
				drop[m] = true
				break
			}
		}
	}

	var active []int
	var total int64
	groupSize := map[int]int{}
	for m := 0; m < n; m++ {
		if drop[m] {
			continue
		}
		active = append(active, m)
		total += p.Cands[m].Size
		if g := p.Cands[m].FactGroup; g > 0 {
			groupSize[g]++
		}
	}

	// Step 4: fixing when the whole surviving pool fits. Candidates are
	// folded in benefit-density order and fixed only while they still
	// improve some query — the same include gate the search applies — so
	// mutually redundant survivors (each improving versus base but not
	// versus the earlier picks) don't bloat the chosen set.
	var forced []int
	if total <= p.Budget && lambda <= 0 {
		fixable := make([]bool, n)
		kept := active[:0]
		for _, m := range active {
			g := p.Cands[m].FactGroup
			if g <= 0 || groupSize[g] == 1 {
				fixable[m] = true
			} else {
				kept = append(kept, m)
			}
		}
		folded := append([]float64(nil), p.Base...)
		for _, m := range orderByDensity(p) {
			if !fixable[m] {
				continue
			}
			improves := false
			for q := 0; q < nQ; q++ {
				if t := p.Cands[m].Times[q]; t < folded[q] {
					folded[q] = t
					improves = true
				}
			}
			if improves {
				forced = append(forced, m)
			}
		}
		active = kept
	}

	if len(forced) == 0 && len(active) == n {
		return &reduction{p: p}
	}

	base := p.Base
	budget := p.Budget
	if len(forced) > 0 {
		base = append([]float64(nil), p.Base...)
		for _, m := range forced {
			for q := 0; q < nQ; q++ {
				if t := p.Cands[m].Times[q]; t < base[q] {
					base[q] = t
				}
			}
			budget -= p.Cands[m].Size
		}
	}
	cands := make([]Candidate, len(active))
	for i, m := range active {
		cands[i] = p.Cands[m]
	}
	return &reduction{
		p:      &Problem{Cands: cands, Base: base, Weights: p.Weights, Budget: budget},
		active: active,
		forced: forced,
	}
}

// warmIncumbent maps a caller-supplied warm-start set (original candidate
// indexes) into the reduced problem and clips it to a feasible improving
// subset, scanned in the given order: entries that were dropped or fixed
// by preprocessing, exceed the remaining budget, collide on a fact group,
// repeat, or improve no query over the running times are skipped — the
// same include gate the search applies. Returns the reduced-space chosen
// set and its objective (summed in query order, bit-identical to
// solver.objectiveOf); ok is false when nothing usable remains.
func (r *reduction) warmIncumbent(warm []int) ([]int, float64, bool) {
	rp := r.p
	var redIdx map[int]int
	if r.active != nil {
		redIdx = make(map[int]int, len(r.active))
		for i, m := range r.active {
			redIdx[m] = i
		}
	}
	nQ := rp.numQueries()
	times := append([]float64(nil), rp.Base...)
	var chosen []int
	var size int64
	factUsed := map[int]bool{}
	seen := map[int]bool{}
	for _, m := range warm {
		ri := m
		if redIdx != nil {
			var ok bool
			if ri, ok = redIdx[m]; !ok {
				continue // dropped or fixed by preprocessing
			}
		} else if m < 0 || m >= len(rp.Cands) {
			continue
		}
		if seen[ri] {
			continue
		}
		seen[ri] = true
		c := &rp.Cands[ri]
		if size+c.Size > rp.Budget {
			continue
		}
		if c.FactGroup > 0 && factUsed[c.FactGroup] {
			continue
		}
		improved := false
		for q := 0; q < nQ; q++ {
			if t := c.Times[q]; t < times[q] {
				times[q] = t
				improved = true
			}
		}
		if !improved {
			continue
		}
		if c.FactGroup > 0 {
			factUsed[c.FactGroup] = true
		}
		chosen = append(chosen, ri)
		size += c.Size
	}
	if len(chosen) == 0 {
		return nil, 0, false
	}
	obj := 0.0
	for q := 0; q < nQ; q++ {
		obj += rp.weight(q) * times[q]
	}
	return chosen, obj, true
}

// lift maps the reduced-space search result back to the original problem:
// fixed candidates (in the density order they were folded) followed by
// the search's picks in their discovery order.
func (r *reduction) lift(p *Problem, s *solver) *Solution {
	chosen := append([]int(nil), r.forced...)
	for _, ci := range s.bestChosen {
		if r.active != nil {
			chosen = append(chosen, r.active[ci])
		} else {
			chosen = append(chosen, ci)
		}
	}
	sol := &Solution{
		Chosen:           chosen,
		Objective:        s.Best,
		Size:             p.SizeOf(chosen),
		Proven:           s.Proven,
		Nodes:            s.Explored(),
		Pruned:           s.Pruned,
		IncumbentUpdates: s.Incumbents,
	}
	sol.PerQuery = perQueryRouting(p, sol.Chosen)
	return sol
}
