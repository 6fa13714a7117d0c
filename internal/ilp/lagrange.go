package ilp

import (
	"sort"
)

// The Lagrangian bound dualizes the space budget inside the per-query
// relaxation. At a node with current times cur, remaining budget R and
// undecided set U, every feasible completion T satisfies, for any λ ≥ 0
// and any apportionment φ ≥ 0 with Σ_q φ_{q,m} ≤ 1 per candidate,
//
//	obj(T) ≥ obj(T) + λ·(size(T) − R)
//	       ≥ Σ_q min( w_q·cur_q,
//	                  min_{m ∈ U, size(m) ≤ R} [w_q·t_{q,m} + λ·φ_{q,m}·size(m)] )
//	         − λ·R
//
// because query q's server m_q ∈ T pays its apportioned share of m_q's
// dualized size and Σ over actual uses never exceeds size(T). The bound
// decomposes per query exactly like the greedy bound — it IS the greedy
// bound at λ = 0 — so it is maintained with the same full/incremental
// machinery, and the node takes max(greedy, lagrangian).
//
// λ is optimized at the root by projected subgradient ascent (Held–Karp
// steps against the incumbent), alternating with a cost-splitting update
// of φ: shares migrate toward the queries that actually picked the
// candidate at the current multiplier (halving toward the concentrated
// split so unpicked queries keep a decaying charge and cannot free-ride
// to zero). The tuned (λ, φ) is frozen into per-query orderings by
// adjusted cost and reused at every node; per node only the −λ·R term and
// the per-query mins move, which is the cheap update. The bound is armed
// only when the tuned dual beats the greedy bound at the root by a
// meaningful fraction of the root gap, so slack-budget problems pay
// nothing.
type lagrangian struct {
	lambda float64
	// perQ[q] lists the candidates finite on q sorted by adjusted cost
	// ascending; adj[q] holds the matching w_q·t + λ·φ·size values. Both
	// are cut by solver.dropDominated once tuning is done.
	perQ [][]int32
	adj  [][]float64
}

// lagGapFraction is the share of the root gap (incumbent − greedy root
// bound) the tuned dual must close for the bound to be armed.
const lagGapFraction = 0.01

// newLagrangian tunes (λ, φ) at the root of the (reduced) problem and
// freezes the per-query adjusted orderings. Returns nil when the dual
// cannot meaningfully beat the greedy bound at the root.
func newLagrangian(p *Problem, s *solver, ub float64) *lagrangian {
	n := len(p.Cands)
	if n == 0 || p.Budget <= 0 {
		return nil
	}
	nQ := p.numQueries()
	budget := float64(p.Budget)

	// Weighted per-query times (aligned with s.perQ) and bases.
	wTimes := s.perQCost
	wBase := make([]float64, nQ)
	for q := 0; q < nQ; q++ {
		wBase[q] = s.weights[q] * p.Base[q]
	}
	// charge[q][r] = φ_{q,m}·size(m) for m = perQ[q][r], initialized to the
	// uniform split over the queries m improves at the root.
	charge := make([][]float64, nQ)
	aCount := make([]int, n)
	for m := 0; m < n; m++ {
		for q := 0; q < nQ; q++ {
			if p.Cands[m].Times[q] < p.Base[q] {
				aCount[m]++
			}
		}
		if aCount[m] == 0 {
			aCount[m] = 1 // never picked by the bound; any share is fine
		}
	}
	for q := 0; q < nQ; q++ {
		cs := make([]float64, len(s.perQ[q]))
		for r, m := range s.perQ[q] {
			cs[r] = float64(p.Cands[m].Size) / float64(aCount[m])
		}
		charge[q] = cs
	}

	picks := make([]int, nQ)
	// eval computes L(λ) for the current φ, the subgradient
	// Σ φ_picks·size − R, and records the per-query picks (-1: base).
	eval := func(lambda float64) (lb, grad float64) {
		total, used := 0.0, 0.0
		for q := 0; q < nQ; q++ {
			best, pick, pickR := wBase[q], -1, -1
			ws, cs := wTimes[q], charge[q]
			for r, m := range s.perQ[q] {
				if s.sizes[m] > p.Budget {
					continue
				}
				if a := ws[r] + lambda*cs[r]; a < best {
					best, pick, pickR = a, m, r
				}
			}
			picks[q] = pick
			if pick >= 0 {
				used += charge[q][pickR]
			}
			total += best
		}
		return total - lambda*budget, used - budget
	}
	// tune maximizes the concave L(λ) for the current φ by following the
	// subgradient's sign: L'(λ) = Σ φ_picks·size − R is non-increasing in
	// λ, so the maximum sits at its zero crossing — bracket it by doubling
	// from a benefit-density-scaled seed, then bisect. Every probed λ is a
	// candidate; the best is kept.
	tune := func() (float64, float64) {
		l0, g0 := eval(0)
		bestL, bestLambda := l0, 0.0
		if g0 <= 0 {
			return bestL, bestLambda
		}
		// Seed at the incumbent's benefit density: λ of that order is
		// where candidates stop paying for themselves.
		lo, hi := 0.0, ub/budget
		for it := 0; it < 60; it++ {
			l, g := eval(hi)
			if l > bestL {
				bestL, bestLambda = l, hi
			}
			if g <= 0 {
				break
			}
			lo, hi = hi, hi*2
		}
		for it := 0; it < 50 && hi-lo > 1e-12*hi; it++ {
			mid := (lo + hi) / 2
			l, g := eval(mid)
			if l > bestL {
				bestL, bestLambda = l, mid
			}
			if g > 0 {
				lo = mid
			} else {
				hi = mid
			}
		}
		return bestL, bestLambda
	}

	bestL, bestLambda := tune()
	bestCharge := charge
	uses := make([]int, n)
	for round := 0; round < 3; round++ {
		// Cost-splitting update at the best multiplier so far: halve every
		// share toward the concentrated split over the queries that picked
		// the candidate.
		eval(bestLambda)
		for m := range uses {
			uses[m] = 0
		}
		for q := 0; q < nQ; q++ {
			if picks[q] >= 0 {
				uses[picks[q]]++
			}
		}
		next := make([][]float64, nQ)
		for q := 0; q < nQ; q++ {
			cs := append([]float64(nil), charge[q]...)
			for r, m := range s.perQ[q] {
				conc := 0.0
				if picks[q] == int(m) && uses[m] > 0 {
					conc = float64(p.Cands[m].Size) / float64(uses[m])
				}
				cs[r] = 0.5*cs[r] + 0.5*conc
			}
			next[q] = cs
		}
		charge = next
		if l, lam := tune(); l > bestL {
			bestL, bestLambda = l, lam
			bestCharge = charge
		}
	}

	// Arm only when the tuned dual beats the greedy bound at the root.
	rootGreedy := 0.0
	for q := 0; q < nQ; q++ {
		c, _ := s.boundQuery(q, p.Base[q], p.Budget)
		rootGreedy += c
	}
	if bestLambda <= 0 || bestL-rootGreedy <= lagGapFraction*(ub-rootGreedy) {
		return nil
	}

	lg := &lagrangian{
		lambda: bestLambda,
		perQ:   make([][]int32, nQ),
		adj:    make([][]float64, nQ),
	}
	for q := 0; q < nQ; q++ {
		k := len(s.perQ[q])
		idx := make([]int, k)
		for r := range idx {
			idx[r] = r
		}
		a := make([]float64, k)
		for r := range s.perQ[q] {
			a[r] = wTimes[q][r] + bestLambda*bestCharge[q][r]
		}
		sort.SliceStable(idx, func(x, y int) bool { return a[idx[x]] < a[idx[y]] })
		ms := make([]int32, k)
		adj := make([]float64, k)
		for r, ri := range idx {
			ms[r] = int32(s.perQ[q][ri])
			adj[r] = a[ri]
		}
		lg.perQ[q] = ms
		lg.adj[q] = adj
	}
	return lg
}

// lagQuery scans query q's ascending adjusted list for the first undecided
// entry that fits the remaining budget and beats the weighted current
// time, returning the contribution and pick (-1: none). An included entry
// never passes the threshold: its adjusted cost is at least w_q·t ≥ wCur.
func (s *solver) lagQuery(q int, wCur float64, remaining int64) (float64, int32) {
	best, pick := wCur, int32(-1)
	adj := s.lag.adj[q]
	for r, m := range s.lag.perQ[q] {
		a := adj[r]
		if a >= best {
			break // sorted ascending; nothing better follows
		}
		if s.decided[m] == 2 || s.sizes[m] > remaining {
			continue
		}
		best, pick = a, m
		break
	}
	return best, pick
}

// lagBoundFull computes the Lagrangian bound at depth pos from scratch,
// recording per-query picks and contributions for incremental children.
func (s *solver) lagBoundFull(bestTimes []float64, usedSize int64, pos int) float64 {
	remaining := s.p.Budget - usedSize
	picks, contrib := s.lagPickBuf[pos], s.lagContribBuf[pos]
	total := 0.0
	for q, cur := range bestTimes {
		c, pick := s.lagQuery(q, s.weights[q]*cur, remaining)
		picks[q], contrib[q] = pick, c
		total += c
	}
	return total - s.lag.lambda*float64(remaining)
}

// lagBoundExcluded updates the parent's Lagrangian bound after excluding
// candidate ex, rescanning only the queries whose pick was ex; the total
// is re-summed in query order, so it equals lagBoundFull's bit for bit.
func (s *solver) lagBoundExcluded(bestTimes []float64, usedSize int64, pos, ex int) float64 {
	remaining := s.p.Budget - usedSize
	parentPicks, parentContrib := s.lagPickBuf[pos-1], s.lagContribBuf[pos-1]
	picks, contrib := s.lagPickBuf[pos], s.lagContribBuf[pos]
	copy(picks, parentPicks)
	copy(contrib, parentContrib)
	ex32 := int32(ex)
	total := 0.0
	for q := range contrib {
		if picks[q] == ex32 {
			c, pick := s.lagQuery(q, s.weights[q]*bestTimes[q], remaining)
			picks[q], contrib[q] = pick, c
		}
		total += contrib[q]
	}
	return total - s.lag.lambda*float64(remaining)
}
