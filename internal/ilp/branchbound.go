package ilp

import (
	"sort"
	"time"

	"coradd/internal/bnb"
)

// Solution is the outcome of Solve or Greedy.
type Solution struct {
	// Chosen are indexes into Problem.Cands, in discovery order
	// (preprocessing-fixed candidates first, then the incumbent's or the
	// search's inclusion order).
	Chosen []int
	// Objective is the total expected workload runtime of the design.
	Objective float64
	// Size is the total space used.
	Size int64
	// Proven reports whether optimality was proven (false when the node or
	// time limit cut the search short).
	Proven bool
	// Nodes is the number of branch-and-bound nodes explored.
	Nodes int
	// Pruned counts nodes cut by the admissible bound; IncumbentUpdates
	// counts strict improvements adopted during the search (0 when the
	// greedy/warm incumbent was already optimal). Both are search-shape
	// diagnostics exported to /metrics; in parallel mode they sum across
	// subtrees the same way Nodes does.
	Pruned           int
	IncumbentUpdates int
	// PerQuery[q] is the index of the chosen candidate serving q, or -1
	// when q runs on the base design.
	PerQuery []int
}

// SolveOptions tunes the exact solver.
type SolveOptions struct {
	// MaxNodes caps search nodes; 0 means 5,000,000, negative means
	// unlimited (internal/scenario sets it from CORADD_SOLVER_MAXNODES for
	// the experiments, the daemon and the CLI). In parallel
	// mode the cap applies per subtree, so the total may exceed it.
	MaxNodes int
	// TimeLimit caps wall time; 0 means none. A triggered time limit is the
	// one intentionally nondeterministic cutoff (Proven reports it).
	TimeLimit time.Duration
	// Interrupt, when non-nil, is polled once per explored node with the
	// current node count and aborts the search (keeping the incumbent,
	// Proven=false) when it returns true — the deterministic analogue of
	// TimeLimit. internal/fault injects solve deadlines through it: a
	// node-count predicate fires at the identical node on every replay,
	// where a wall-clock limit would not. In parallel mode the predicate
	// sees per-subtree node counts (matching MaxNodes semantics) and must
	// be safe for concurrent calls.
	Interrupt func(nodes int) bool
	// Workers selects deterministic parallel subtree search when > 1; 0 or
	// 1 keeps the sequential depth-first search (the 1-CPU default). For a
	// fixed (problem, Workers) pair results are bit-identical run to run,
	// and Chosen/Objective match sequential mode.
	Workers int
	// WarmStart seeds the search with a known-good solution: indexes into
	// Problem.Cands (an incumbent design's objects matched into this
	// problem, the adaptive-redesign entry point). The subset is clipped
	// to feasibility, mapped through preprocessing, optionally polished,
	// and adopted as the initial incumbent when it beats the greedy one —
	// so a warm solve starts with a bound at least as tight as a cold
	// solve's and explores no more nodes. Infeasible or unknown entries
	// are skipped; an empty slice is a cold solve.
	WarmStart []int
	// Progress, when non-nil, receives deterministic search snapshots:
	// one "root" sample before the first node, a "search" sample every
	// ProgressEvery nodes, one per incumbent improvement and per merged
	// parallel subtree, and a "final" sample. Emission is keyed to node
	// ordinals only, so the sequence is bit-identical run to run at a
	// fixed Workers setting, and a nil sink changes nothing about the
	// search (see ProgressSample). Samples arrive on the calling
	// goroutine — worker tasks never emit.
	Progress func(ProgressSample)
	// ProgressEvery is the "search"-sample node cadence; 0 means
	// bnb.DefaultProgressEvery. Ignored without Progress.
	ProgressEvery int

	// Test hooks, settable only from this package's tests: noPreprocess
	// skips the budget-aware reduction pass (dominance.go), noLagrangian the
	// Lagrangian budget bound (lagrange.go), noPolish the local-search
	// polish of the greedy incumbent. The solver tests set them to compare
	// the search with each device switched off.
	noPreprocess, noLagrangian, noPolish bool
}

// IsZero reports whether every exported option is at its default (struct
// equality against SolveOptions{} is ruled out by the slice field).
func (o *SolveOptions) IsZero() bool {
	return o.MaxNodes == 0 && o.TimeLimit == 0 && o.Workers == 0 && o.Interrupt == nil &&
		len(o.WarmStart) == 0 && o.Progress == nil && o.ProgressEvery == 0
}

// defaultMaxNodes is the node cap applied when SolveOptions.MaxNodes is 0.
const defaultMaxNodes = 5_000_000

// Solve finds the optimal candidate subset by depth-first branch-and-bound
// on the shared driver (internal/bnb); this file holds only the selection
// problem's own bound, branching and state snapshot.
//
// Pipeline: a preprocessing pass first shrinks the problem — candidates
// that cannot fit, help no query, or are dominated are removed, and
// candidates that always fit are fixed (dominance.go). The search then
// runs on the reduced problem and the solution is lifted back to original
// candidate indexes.
//
// Ordering: candidates are considered in decreasing benefit density
// (workload-runtime saved per byte), so good incumbents appear early.
// Bound: at a node, the larger of two admissible bounds. The greedy bound
// lets every query use the best of {already chosen} ∪ {undecided
// candidates that individually fit the remaining budget}, relaxing the
// budget to per-candidate feasibility and dropping the fact-group rule.
// The Lagrangian bound dualizes the space budget with a root-optimized
// multiplier (lagrange.go) and dominates the greedy bound when the budget
// constraint is what binds. Both are maintained incrementally along
// exclude chains, bit-identically to full recomputation, and both scan
// per-query lists cut by dominance before the search starts
// (dropDominated), which leaves every scan's result unchanged.
func Solve(p *Problem, opts SolveOptions) *Solution {
	return solve(p, 0, opts)
}

// SolvePenalized minimizes the workload cost plus a price on space,
//
//	obj(S) + lambda · size(S)
//
// subject to size(S) ≤ p.Budget and the fact-group exclusion rule. It is
// Solve's search with λ carried as data: the penalty of the included set
// joins the node value, and every undecided candidate m a query's bound
// leans on is charged λ·size_m/K_m, where K_m counts the queries m can
// improve — a completion pays λ·size_m in full while at most K_m queries
// collect a share, so the relaxation stays a lower bound on obj + λ·size.
// Submodularity extends the useless-candidate drop: a candidate's marginal
// benefit in any set is at most its solo benefit Σ_q w_q·max(0, base_q −
// t_q), so one whose solo benefit does not exceed λ·size can never pay its
// penalty — the lever that keeps high-λ solves near-free. Fixing
// always-fitting candidates, the budget Lagrangian and the incumbent
// polish price the unpenalized objective and are skipped.
//
// The returned Solution reports the *unpenalized* objective obj(S) — the
// same semantics as Solve — with Chosen ascending, so callers recover the
// penalized value as Objective + lambda·Size; lambda ≤ 0 is Solve.
// opts.Workers is ignored: a λ > 0 search runs sequentially. No selection
// path calls it: shared budgets are solved exactly by pooling (pool.go),
// and it stays as the penalized arm of the search that its tests and the
// coraddbench ilp.penalized_ms probe exercise.
func SolvePenalized(p *Problem, lambda float64, opts SolveOptions) *Solution {
	if lambda <= 0 {
		return Solve(p, opts)
	}
	opts.Workers = 0
	sol := solve(p, lambda, opts)
	sort.Ints(sol.Chosen)
	sol.Objective = p.Objective(sol.Chosen)
	sol.PerQuery = perQueryRouting(p, sol.Chosen)
	return sol
}

func solve(p *Problem, lambda float64, opts SolveOptions) *Solution {
	red := reduce(p, lambda, opts)
	rp := red.p
	order := orderByDensity(rp)

	// Incumbent from greedy on the reduced problem, optionally polished by
	// local search — the cheapest node-count lever the search has.
	var incChosen []int
	var incObj float64
	if lambda > 0 {
		incChosen, incObj = penalizedGreedy(rp, lambda, order)
	} else {
		inc := Greedy(rp, 2, len(rp.Cands))
		incChosen, incObj = append([]int(nil), inc.Chosen...), inc.Objective
	}
	polishing := !opts.noPolish && lambda == 0
	if polishing {
		incChosen, incObj = polish(rp, incChosen, incObj)
	}
	// A warm start can only tighten the initial incumbent: the better of
	// the (polished) greedy solution and the (polished) warm subset seeds
	// the search, so warm-solve pruning dominates cold-solve pruning.
	if len(opts.WarmStart) > 0 {
		if wChosen, wObj, ok := red.warmIncumbent(opts.WarmStart); ok {
			wObj += lambda * float64(rp.SizeOf(wChosen))
			if polishing {
				wChosen, wObj = polish(rp, wChosen, wObj)
			}
			if wObj < incObj {
				incChosen, incObj = wChosen, wObj
			}
		}
	}

	s := newSolver(rp, order, lambda)
	s.Search = bnb.New(bnb.Limits{
		MaxNodes: opts.MaxNodes, TimeLimit: opts.TimeLimit, Interrupt: opts.Interrupt,
		Progress: opts.Progress, ProgressEvery: opts.ProgressEvery,
	}, defaultMaxNodes, incObj)
	s.bestChosen = incChosen
	if !opts.noLagrangian && lambda == 0 {
		s.lag = newLagrangian(rp, s, incObj)
	}
	s.dropDominated()
	// The root bound is the greedy relaxation at the empty prefix, via
	// boundFull, never through bound(), whose lagWins accounting would
	// perturb the deterministic Lagrangian-disarm decision and break
	// byte-identity with an unobserved solve.
	s.Root(func() float64 {
		s.row(0)
		return s.boundFull(rp.Base, 0, 0)
	})

	// With Workers > 1 this pass stops at the frontier depth — identical,
	// node for node, to the upper levels of the sequential search — and the
	// prefixes it leaves behind are searched in parallel.
	s.frontier = s.frontierDepth(opts.Workers)
	s.dfs(0, 0, rp.Base, s.objectiveOf(rp.Base), -1, nil, map[int]bool{})
	s.searchLeaves(opts.Workers)
	s.Final()

	return red.lift(p, s)
}

// solver is the selection problem on the shared driver: the precomputed
// tables (shared, read-only after construction) and the mutable state of
// one depth-first search. A parallel split clones the mutable part per
// subtree (searchLeaves).
type solver struct {
	bnb.Search
	p     *Problem
	order []int
	perQ  [][]int
	nQ    int
	// lambda is SolvePenalized's size penalty, 0 for Solve. The search
	// minimizes obj + lambda·size; every term it adds vanishes at 0.
	lambda float64

	// perQCost[q][r] is what query q pays for leaning on candidate m =
	// perQ[q][r]: its weighted runtime w_q·t plus, under a penalty, m's
	// amortized share lambda·size_m/K_m (K_m: the queries m can improve).
	// perQ[q] is ascending in it. newSolver builds the full lists, which
	// newLagrangian's tuning reads; dropDominated then cuts them, before
	// the search, to the entries that can be a node's pick. weights and
	// sizes are the dense forms of Problem.weight and Candidate.Size.
	perQCost [][]float64
	weights  []float64
	sizes    []int64
	// lag is the Lagrangian budget bound, nil when disabled or when the
	// root multiplier degenerates to zero (identical to the greedy bound).
	lag *lagrangian

	// Mutable search state.
	decided []int8 // 0 undecided, 1 included, 2 excluded
	// pickBuf[d][q] / contribBuf[d][q] hold, for the node at depth d, the
	// candidate the greedy bound let q use (-1 = none) and q's weighted
	// bound contribution; lagPickBuf/lagContribBuf are the Lagrangian
	// bound's equivalents (lagrange.go). Rows are allocated on first use:
	// shallow searches (the common case once the bound closes at the
	// root) never touch most depths.
	pickBuf       [][]int32
	contribBuf    [][]float64
	lagPickBuf    [][]int32
	lagContribBuf [][]float64
	// timesBuf[d] backs the include branch's new times vector at depth d,
	// so the hot path allocates each depth's buffer once per search.
	timesBuf [][]float64

	// bestChosen is the candidate set behind Search.Best.
	bestChosen []int
	// lagWins counts nodes the Lagrangian bound pruned that the greedy
	// bound alone would not have; at the lagProbeNodes checkpoint a
	// solver that saw too few wins disarms the Lagrangian for the rest of
	// its search (the checkpoint is a fixed node ordinal, so the decision
	// is deterministic).
	lagWins int

	// frontier/leaves drive the parallel split: dfs snapshots state at
	// depth frontier instead of descending (-1: never).
	frontier int
	leaves   []subtree
}

// newSolver precomputes the dense lookup tables for p.
func newSolver(p *Problem, order []int, lambda float64) *solver {
	nQ := p.numQueries()
	s := &solver{p: p, order: order, nQ: nQ, lambda: lambda}
	s.weights = make([]float64, nQ)
	for q := 0; q < nQ; q++ {
		s.weights[q] = p.weight(q)
	}
	s.sizes = make([]int64, len(p.Cands))
	amort := make([]float64, len(p.Cands))
	for m := range p.Cands {
		s.sizes[m] = p.Cands[m].Size
		if lambda > 0 {
			k := 0
			for q := 0; q < nQ; q++ {
				if p.Cands[m].Times[q] < p.Base[q] {
					k++
				}
			}
			if k > 0 {
				amort[m] = lambda * float64(s.sizes[m]) / float64(k)
			}
		}
	}
	cost := func(q, m int) float64 { return s.weights[q]*p.Cands[m].Times[q] + amort[m] }
	s.perQ = sortedPerQuery(p)
	s.perQCost = make([][]float64, nQ)
	for q, idx := range s.perQ {
		if lambda > 0 { // shares break the time order
			sort.SliceStable(idx, func(a, b int) bool { return cost(q, idx[a]) < cost(q, idx[b]) })
		}
		cs := make([]float64, len(idx))
		for r, m := range idx {
			cs[r] = cost(q, m)
		}
		s.perQCost[q] = cs
	}
	s.resetState()
	return s
}

// resetState gives the solver fresh mutable search state.
func (s *solver) resetState() {
	n := len(s.p.Cands)
	s.decided = make([]int8, n)
	s.pickBuf = make([][]int32, n+1)
	s.contribBuf = make([][]float64, n+1)
	s.lagPickBuf = make([][]int32, n+1)
	s.lagContribBuf = make([][]float64, n+1)
	s.timesBuf = make([][]float64, n+1)
	s.bestChosen, s.leaves, s.lagWins = nil, nil, 0
}

// lagProbeNodes is the node ordinal at which a solver reviews whether the
// Lagrangian bound is earning its per-node cost.
const lagProbeNodes = 16384

// timesRow returns the include branch's times buffer for depth d.
func (s *solver) timesRow(d int) []float64 {
	if s.timesBuf[d] == nil {
		s.timesBuf[d] = make([]float64, s.nQ)
	}
	return s.timesBuf[d]
}

// row ensures the per-depth scratch buffers for depth d exist.
func (s *solver) row(d int) {
	if s.pickBuf[d] == nil {
		s.pickBuf[d] = make([]int32, s.nQ)
		s.contribBuf[d] = make([]float64, s.nQ)
	}
	if s.lag != nil && s.lagPickBuf[d] == nil {
		s.lagPickBuf[d] = make([]int32, s.nQ)
		s.lagContribBuf[d] = make([]float64, s.nQ)
	}
}

// objectiveOf sums the weighted per-query times in query order (the one
// summation order used everywhere, so repeated evaluations are bit-equal).
func (s *solver) objectiveOf(bestTimes []float64) float64 {
	cur := 0.0
	for q, t := range bestTimes {
		cur += s.weights[q] * t
	}
	return cur
}

// dfs explores decisions for order[pos:]. bestTimes reflects included
// candidates with cur their weighted objective plus lambda·usedSize;
// usedSize their total size; chosen their indexes. cur is recomputed only
// when the chosen set changes (the exclude branch reuses the parent's
// value, which is identical). excluded names the candidate the parent just
// excluded (-1 after an include or at a subtree root), enabling the
// incremental bound.
func (s *solver) dfs(pos int, usedSize int64, bestTimes []float64, cur float64, excluded int, chosen []int, factUsed map[int]bool) {
	if pos == s.frontier {
		fu := make(map[int]bool, len(factUsed))
		for g := range factUsed {
			fu[g] = true
		}
		s.leaves = append(s.leaves, subtree{
			usedSize:  usedSize,
			bestTimes: append([]float64(nil), bestTimes...),
			cur:       cur,
			chosen:    append([]int(nil), chosen...),
			factUsed:  fu,
			decided:   append([]int8(nil), s.decided...),
		})
		return
	}
	if !s.Enter() {
		return
	}
	if s.lag != nil && s.Nodes == lagProbeNodes && s.lagWins*100 < s.Nodes {
		s.lag = nil // pruning <1% of nodes: not worth its per-node cost
	}
	if s.Adopt(cur) {
		s.bestChosen = append([]int(nil), chosen...)
	}
	if pos >= len(s.order) {
		return
	}
	if s.Cut(s.bound(pos, usedSize, bestTimes, excluded)) {
		return
	}
	m := s.order[pos]
	cand := &s.p.Cands[m]
	fits := usedSize+cand.Size <= s.p.Budget
	factOK := cand.FactGroup <= 0 || !factUsed[cand.FactGroup]

	if fits && factOK {
		// Include m. The new times and their objective are built in one
		// pass — the sum visits queries in the same order as objectiveOf,
		// so the value is bit-identical.
		s.decided[m] = 1
		newTimes := s.timesRow(pos + 1)
		improved := false
		newObj := 0.0
		for q, t := range bestTimes {
			if tc := cand.Times[q]; tc < t {
				t = tc
				improved = true
			}
			newTimes[q] = t
			newObj += s.weights[q] * t
		}
		if improved {
			newObj += s.lambda * float64(usedSize+cand.Size)
			if cand.FactGroup > 0 {
				factUsed[cand.FactGroup] = true
			}
			s.dfs(pos+1, usedSize+cand.Size, newTimes, newObj, -1, append(chosen, m), factUsed)
			if cand.FactGroup > 0 {
				delete(factUsed, cand.FactGroup)
			}
		}
		s.decided[m] = 0
	}
	// Exclude m.
	s.decided[m] = 2
	s.dfs(pos+1, usedSize, bestTimes, cur, m, chosen, factUsed)
	s.decided[m] = 0
}

// subtree is one frontier node of the parallel split: the full search
// state of a depth-d prefix whose descendants form an independent
// subproblem.
type subtree struct {
	usedSize  int64
	bestTimes []float64
	cur       float64
	chosen    []int
	factUsed  map[int]bool
	decided   []int8
}

// frontierDepth picks the split depth for the given worker count: enough
// prefixes to feed the pool, at most half the candidates; -1 means search
// sequentially.
func (s *solver) frontierDepth(workers int) int {
	depth := 1
	for (1<<depth) < 4*workers && depth < 12 {
		depth++
	}
	if depth > len(s.order)/2 {
		depth = len(s.order) / 2
	}
	if workers <= 1 || depth < 1 {
		return -1
	}
	return depth
}

// searchLeaves hands the prefixes the enumeration pass snapshotted at the
// frontier to the driver's deterministic Split. Without any — a sequential
// search, or an enumeration that pruned everything — it does nothing.
func (s *solver) searchLeaves(workers int) {
	depth, leaves := s.frontier, s.leaves
	s.frontier, s.leaves = -1, nil
	if len(leaves) == 0 {
		return
	}
	sols := make([][]int, len(leaves))
	win := s.Split(len(leaves), workers, func(i int, sub bnb.Search) bnb.Search {
		// Precomputed tables are shared read-only; search state is fresh.
		t := *s
		t.Search = sub
		t.resetState()
		leaf := &leaves[i]
		copy(t.decided, leaf.decided)
		t.dfs(depth, leaf.usedSize, leaf.bestTimes, leaf.cur, -1, leaf.chosen, leaf.factUsed)
		sols[i] = t.bestChosen
		return t.Search
	})
	if win >= 0 {
		s.bestChosen = sols[win]
	}
}

// bound computes the node's admissible bound: the greedy relaxation, or
// the larger of it and the Lagrangian bound when the latter is armed, plus
// the penalty already committed. A full scan runs after an include (times
// and budget both changed); an incremental update over the parent's
// per-query picks runs after an exclude (only queries whose pick was just
// excluded can change) — both paths produce bit-identical totals, for each
// bound.
func (s *solver) bound(pos int, usedSize int64, bestTimes []float64, excluded int) float64 {
	s.row(pos)
	full := excluded < 0 || pos == 0
	var b float64
	if full {
		b = s.boundFull(bestTimes, usedSize, pos)
	} else {
		b = s.boundExcluded(bestTimes, usedSize, pos, excluded)
	}
	if s.lag != nil {
		var lb float64
		if full {
			lb = s.lagBoundFull(bestTimes, usedSize, pos)
		} else {
			lb = s.lagBoundExcluded(bestTimes, usedSize, pos, excluded)
		}
		if lb > b {
			if s.Cuts(lb) && !s.Cuts(b) {
				s.lagWins++ // a prune the greedy bound alone would miss
			}
			b = lb
		}
	}
	return b + s.lambda*float64(usedSize)
}

// boundQuery scans query q's ascending cost list for the first undecided
// entry that fits the remaining budget and undercuts the weighted current
// time, returning the optimistic cost and the candidate used (-1: none).
// Included candidates are already folded into cur, so the scan stops
// before reaching them and their share is never charged twice.
func (s *solver) boundQuery(q int, cur float64, remaining int64) (float64, int32) {
	best, pick := s.weights[q]*cur, int32(-1)
	cs := s.perQCost[q]
	for r, m := range s.perQ[q] {
		c := cs[r]
		if c >= best {
			break // sorted ascending; nothing better follows
		}
		if s.decided[m] == 2 || s.sizes[m] > remaining {
			continue
		}
		best, pick = c, int32(m)
		break
	}
	return best, pick
}

// boundFull computes the optimistic objective at depth pos from scratch,
// recording per-query picks and contributions for incremental children.
func (s *solver) boundFull(bestTimes []float64, usedSize int64, pos int) float64 {
	remaining := s.p.Budget - usedSize
	picks, contrib := s.pickBuf[pos], s.contribBuf[pos]
	total := 0.0
	for q, cur := range bestTimes {
		c, pick := s.boundQuery(q, cur, remaining)
		picks[q], contrib[q] = pick, c
		total += c
	}
	return total
}

// boundExcluded updates the parent's bound after excluding candidate ex:
// with times and budget unchanged, a query's optimistic pick can only
// change if it was ex. Unaffected contributions are copied verbatim and the
// total is re-summed in query order, so the result equals boundFull's bit
// for bit.
func (s *solver) boundExcluded(bestTimes []float64, usedSize int64, pos, ex int) float64 {
	remaining := s.p.Budget - usedSize
	parentPicks, parentContrib := s.pickBuf[pos-1], s.contribBuf[pos-1]
	picks, contrib := s.pickBuf[pos], s.contribBuf[pos]
	copy(picks, parentPicks)
	copy(contrib, parentContrib)
	ex32 := int32(ex)
	total := 0.0
	for q := range contrib {
		if picks[q] == ex32 {
			contrib[q], picks[q] = s.boundQuery(q, bestTimes[q], remaining)
		}
		total += contrib[q]
	}
	return total
}

// dropDominated filters every per-query bound list, the greedy and the
// armed Lagrangian's, so a node scans only entries that can become its
// pick. Walking a list in ascending cost, entry m goes when an entry k
// kept before it branches later (orderPos[k] > orderPos[m]) and is no
// larger. At a node of depth pos every candidate with orderPos ≥ pos is
// undecided, so whenever m is undecided and fits, k is too, costs no
// more and comes first: m is never the first qualifying entry. An
// included candidate costs at least w_q·cur_q, so the scan stops at the
// threshold before it either way. Every scan therefore returns the same
// (contribution, pick) as over the full list, and the search is
// unchanged node for node.
func (s *solver) dropDominated() {
	orderPos := make([]int, len(s.order))
	for i, m := range s.order {
		orderPos[m] = i
	}
	for q := range s.perQ {
		s.perQ[q], s.perQCost[q] = undominated(s.perQ[q], s.perQCost[q], orderPos, s.sizes)
		if s.lag != nil {
			s.lag.perQ[q], s.lag.adj[q] = undominated(s.lag.perQ[q], s.lag.adj[q], orderPos, s.sizes)
		}
	}
}

// undominated compacts one ascending list (ms with costs cs) in place to
// the entries no earlier kept entry dominates, in dropDominated's sense.
func undominated[M int | int32](ms []M, cs []float64, orderPos []int, sizes []int64) ([]M, []float64) {
	n := 0
next:
	for r, m := range ms {
		for _, k := range ms[:n] {
			if orderPos[k] > orderPos[m] && sizes[k] <= sizes[m] {
				continue next
			}
		}
		ms[n], cs[n] = m, cs[r]
		n++
	}
	return ms[:n], cs[:n]
}

// orderByDensity sorts candidate indexes by benefit density descending.
func orderByDensity(p *Problem) []int {
	type scored struct {
		idx     int
		density float64
	}
	sc := make([]scored, len(p.Cands))
	for m := range p.Cands {
		benefit := 0.0
		for q := 0; q < p.numQueries(); q++ {
			if t := p.Cands[m].Times[q]; t < p.Base[q] {
				benefit += p.weight(q) * (p.Base[q] - t)
			}
		}
		size := float64(p.Cands[m].Size)
		if size < 1 {
			size = 1
		}
		sc[m] = scored{m, benefit / size}
	}
	sort.SliceStable(sc, func(i, j int) bool { return sc[i].density > sc[j].density })
	out := make([]int, len(sc))
	for i, s := range sc {
		out[i] = s.idx
	}
	return out
}

// sortedPerQuery builds, per query, candidate indexes sorted by that
// query's runtime ascending, excluding infeasible pairs — the paper's
// p_{q,r} ordering.
func sortedPerQuery(p *Problem) [][]int {
	nQ := p.numQueries()
	out := make([][]int, nQ)
	for q := 0; q < nQ; q++ {
		var idx []int
		for m := range p.Cands {
			if p.Cands[m].Times[q] < Infeasible {
				idx = append(idx, m)
			}
		}
		sort.SliceStable(idx, func(a, b int) bool {
			return p.Cands[idx[a]].Times[q] < p.Cands[idx[b]].Times[q]
		})
		out[q] = idx
	}
	return out
}

// perQueryRouting maps each query to the chosen candidate serving it.
func perQueryRouting(p *Problem, chosen []int) []int {
	nQ := p.numQueries()
	out := make([]int, nQ)
	for q := 0; q < nQ; q++ {
		out[q] = -1
		best := p.Base[q]
		for _, m := range chosen {
			if t := p.Cands[m].Times[q]; t < best {
				best = t
				out[q] = m
			}
		}
	}
	return out
}
