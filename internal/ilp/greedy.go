package ilp

// Greedy implements Greedy(m,k) (Chaudhuri & Narasayya, VLDB 1997; §5.2):
// exhaustively pick the best feasible seed set of at most seedM candidates,
// then greedily add the candidate with the largest runtime improvement
// until the budget is exhausted or k candidates are chosen.
//
// The implementation prunes with per-candidate benefit bounds: the joint
// benefit of a set never exceeds the sum of its members' individual
// benefits (per query, the best member's saving bounds the set's saving),
// so subsets whose benefit sum cannot reach the running best are skipped
// without evaluating the objective. Pruned subsets could never have
// updated the running best (the bound carries a slack far above float
// rounding while the update test needs a strict 1e-12 improvement), so
// the chosen sequence is identical to the unpruned enumeration's.
func Greedy(p *Problem, seedM, k int) *Solution {
	if k <= 0 {
		k = len(p.Cands)
	}
	n := len(p.Cands)
	nQ := p.numQueries()
	weights := make([]float64, nQ)
	for q := 0; q < nQ; q++ {
		weights[q] = p.weight(q)
	}
	objBase := 0.0
	for q := 0; q < nQ; q++ {
		objBase += weights[q] * p.Base[q]
	}
	// benefit[m] bounds how much adding m can ever lower any objective.
	benefit := make([]float64, n)
	for m := 0; m < n; m++ {
		b := 0.0
		for q := 0; q < nQ; q++ {
			if t := p.Cands[m].Times[q]; t < p.Base[q] {
				b += weights[q] * (p.Base[q] - t)
			}
		}
		benefit[m] = b
	}
	// slack absorbs summation rounding so the bound never prunes a subset
	// the exact evaluation would have accepted (updates need a strict
	// 1e-12 improvement; rounding is orders of magnitude below this).
	slack := 1e-9 * (1 + objBase)

	bestSeed := []int{}
	bestObj := objBase
	if seedM >= 1 {
		if seedM <= 2 {
			// The m=2 fast path walks the exact enumeration order of the
			// general recursion ([i] before [i,j], j ascending) so running
			// bests evolve identically.
			for i := 0; i < n; i++ {
				ci := &p.Cands[i]
				if ci.Size > p.Budget {
					continue // infeasible single: the recursion stops here too
				}
				obj := 0.0
				for q := 0; q < nQ; q++ {
					t := p.Base[q]
					if ti := ci.Times[q]; ti < t {
						t = ti
					}
					obj += weights[q] * t
				}
				if obj < bestObj-1e-12 {
					bestObj = obj
					bestSeed = []int{i}
				}
				if seedM < 2 {
					continue
				}
				for j := i + 1; j < n; j++ {
					cj := &p.Cands[j]
					if ci.Size+cj.Size > p.Budget {
						continue
					}
					if ci.FactGroup > 0 && ci.FactGroup == cj.FactGroup {
						continue
					}
					if objBase-(benefit[i]+benefit[j]) > bestObj+slack {
						continue
					}
					obj := 0.0
					for q := 0; q < nQ; q++ {
						t := p.Base[q]
						if ti := ci.Times[q]; ti < t {
							t = ti
						}
						if tj := cj.Times[q]; tj < t {
							t = tj
						}
						obj += weights[q] * t
					}
					if obj < bestObj-1e-12 {
						bestObj = obj
						bestSeed = []int{i, j}
					}
				}
			}
		} else {
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
				for m := start; m < n; m++ {
					rec(m+1, append(cur, m))
				}
			}
			rec(0, nil)
		}
	}

	// Greedy additions with an incremental objective: curTimes holds the
	// best time per query over chosen ∪ base, so evaluating a trial is one
	// pass, bit-identical to Problem.Objective of the full trial set (min
	// is exact and the weighted sum stays in query order).
	chosen := append([]int(nil), bestSeed...)
	curTimes := append([]float64(nil), p.Base...)
	used := make([]bool, n)
	var usedSize int64
	factUsed := map[int]bool{}
	for _, m := range chosen {
		used[m] = true
		usedSize += p.Cands[m].Size
		if g := p.Cands[m].FactGroup; g > 0 {
			factUsed[g] = true
		}
		for q := 0; q < nQ; q++ {
			if t := p.Cands[m].Times[q]; t < curTimes[q] {
				curTimes[q] = t
			}
		}
	}
	obj := 0.0
	for q := 0; q < nQ; q++ {
		obj += weights[q] * curTimes[q]
	}
	for len(chosen) < k {
		bestM, bestNew := -1, obj
		for m := 0; m < n; m++ {
			if used[m] {
				continue
			}
			cand := &p.Cands[m]
			if usedSize+cand.Size > p.Budget {
				continue
			}
			if cand.FactGroup > 0 && factUsed[cand.FactGroup] {
				continue
			}
			if obj-benefit[m] > bestNew+slack {
				continue
			}
			o := 0.0
			for q := 0; q < nQ; q++ {
				t := curTimes[q]
				if tm := cand.Times[q]; tm < t {
					t = tm
				}
				o += weights[q] * t
			}
			if o < bestNew-1e-12 {
				bestNew = o
				bestM = m
			}
		}
		if bestM < 0 {
			break
		}
		chosen = append(chosen, bestM)
		used[bestM] = true
		usedSize += p.Cands[bestM].Size
		if g := p.Cands[bestM].FactGroup; g > 0 {
			factUsed[g] = true
		}
		for q := 0; q < nQ; q++ {
			if t := p.Cands[bestM].Times[q]; t < curTimes[q] {
				curTimes[q] = t
			}
		}
		obj = bestNew
	}
	sol := &Solution{Chosen: chosen, Objective: obj, Size: p.SizeOf(chosen), Proven: false}
	sol.PerQuery = perQueryRouting(p, chosen)
	return sol
}

// penalizedGreedy seeds SolvePenalized: repeatedly add the candidate with
// the best marginal gain net of its penalty lambda·size, while positive,
// scanning in the given order (ties keep the earlier candidate). It
// returns the chosen set and its penalized value obj + lambda·size.
func penalizedGreedy(p *Problem, lambda float64, order []int) ([]int, float64) {
	times := append([]float64(nil), p.Base...)
	var chosen []int
	var used int64
	factUsed := map[int]bool{}
	inSet := make([]bool, len(p.Cands))
	for {
		best, bestGain := -1, 0.0
		for _, m := range order {
			c := &p.Cands[m]
			if inSet[m] || used+c.Size > p.Budget || (c.FactGroup > 0 && factUsed[c.FactGroup]) {
				continue
			}
			gain := -lambda * float64(c.Size)
			for q, cur := range times {
				if t := c.Times[q]; t < cur {
					gain += p.weight(q) * (cur - t)
				}
			}
			if gain > bestGain+1e-12 {
				best, bestGain = m, gain
			}
		}
		if best < 0 {
			return chosen, p.Objective(chosen) + lambda*float64(used)
		}
		c := &p.Cands[best]
		inSet[best] = true
		chosen = append(chosen, best)
		used += c.Size
		if c.FactGroup > 0 {
			factUsed[c.FactGroup] = true
		}
		for q, cur := range times {
			if t := c.Times[q]; t < cur {
				times[q] = t
			}
		}
	}
}

// polishLimit caps the pool size the incumbent polish runs on: the swap
// scan is O(n·k) objective evaluations per round, which huge pools (where
// greedy is near-optimal anyway) should not pay.
const polishLimit = 1024

// polish improves an incumbent by deterministic first-improvement local
// search — single additions, then single swaps, accepted only on a strict
// 1e-12 improvement — until a round finds nothing or the move cap is hit.
// A near-optimal incumbent is the cheapest node-count lever the solver
// has: every subtree whose bound cannot beat it is pruned immediately.
// Per-candidate benefit bounds skip replacements that provably cannot
// reach a strict improvement, exactly as in Greedy.
func polish(p *Problem, chosen []int, obj float64) ([]int, float64) {
	n := len(p.Cands)
	if n > polishLimit || n == 0 {
		return chosen, obj
	}
	nQ := p.numQueries()
	weights := make([]float64, nQ)
	for q := 0; q < nQ; q++ {
		weights[q] = p.weight(q)
	}
	benefit := make([]float64, n)
	objBase := 0.0
	for q := 0; q < nQ; q++ {
		objBase += weights[q] * p.Base[q]
	}
	for m := 0; m < n; m++ {
		b := 0.0
		for q := 0; q < nQ; q++ {
			if t := p.Cands[m].Times[q]; t < p.Base[q] {
				b += weights[q] * (p.Base[q] - t)
			}
		}
		benefit[m] = b
	}
	slack := 1e-9 * (1 + objBase)

	chosen = append([]int(nil), chosen...)
	inChosen := make([]bool, n)
	var size int64
	groupUses := map[int]int{}
	for _, m := range chosen {
		inChosen[m] = true
		size += p.Cands[m].Size
		if g := p.Cands[m].FactGroup; g > 0 {
			groupUses[g]++
		}
	}
	times := make([]float64, nQ)
	scratch := make([]float64, nQ)
	// rebuild fills dst with the best times over chosen∖{skip} ∪ base.
	rebuild := func(dst []float64, skip int) {
		copy(dst, p.Base)
		for _, m := range chosen {
			if m == skip {
				continue
			}
			for q := 0; q < nQ; q++ {
				if t := p.Cands[m].Times[q]; t < dst[q] {
					dst[q] = t
				}
			}
		}
	}
	objWith := func(ts []float64, m int) float64 {
		o := 0.0
		for q := 0; q < nQ; q++ {
			t := ts[q]
			if tm := p.Cands[m].Times[q]; tm < t {
				t = tm
			}
			o += weights[q] * t
		}
		return o
	}
	for moves := 0; moves < 64; moves++ {
		improved := false
		// Additions first (cheap, and swaps can open room for them).
		rebuild(times, -1)
		for m := 0; m < n && !improved; m++ {
			cand := &p.Cands[m]
			if inChosen[m] || size+cand.Size > p.Budget {
				continue
			}
			if g := cand.FactGroup; g > 0 && groupUses[g] > 0 {
				continue
			}
			if benefit[m] < 1e-12 {
				continue // cannot strictly improve anything
			}
			if o := objWith(times, m); o < obj-1e-12 {
				chosen = append(chosen, m)
				inChosen[m] = true
				size += cand.Size
				if g := cand.FactGroup; g > 0 {
					groupUses[g]++
				}
				obj = o
				improved = true
			}
		}
		// Single swaps, scanning chosen and replacements in fixed order.
		for ci := 0; ci < len(chosen) && !improved; ci++ {
			c := chosen[ci]
			cc := &p.Cands[c]
			rebuild(scratch, c)
			objWithoutC := 0.0
			for q := 0; q < nQ; q++ {
				objWithoutC += weights[q] * scratch[q]
			}
			for m := 0; m < n && !improved; m++ {
				cand := &p.Cands[m]
				if inChosen[m] || size-cc.Size+cand.Size > p.Budget {
					continue
				}
				if g := cand.FactGroup; g > 0 && groupUses[g]-boolToInt(g == cc.FactGroup) > 0 {
					continue
				}
				if objWithoutC-benefit[m] > obj+slack {
					continue
				}
				if o := objWith(scratch, m); o < obj-1e-12 {
					chosen[ci] = m
					inChosen[c] = false
					inChosen[m] = true
					size += cand.Size - cc.Size
					if g := cc.FactGroup; g > 0 {
						groupUses[g]--
					}
					if g := cand.FactGroup; g > 0 {
						groupUses[g]++
					}
					obj = o
					improved = true
				}
			}
		}
		if !improved {
			break
		}
	}
	return chosen, obj
}

func boolToInt(b bool) int {
	if b {
		return 1
	}
	return 0
}
