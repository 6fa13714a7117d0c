package deploy

import (
	"sort"

	"coradd/internal/bnb"
)

// Options tunes Solve.
type Options struct {
	// MaxNodes caps search nodes; 0 means 2,000,000, negative means
	// unlimited. In parallel mode the cap applies per subtree, so the
	// total may exceed it (matching ilp.SolveOptions).
	MaxNodes int
	// Workers selects the deterministic parallel subtree search when > 1;
	// 0 or 1 keeps the sequential depth-first search. For a fixed
	// problem the schedule is bit-identical at any worker count.
	Workers int
	// Progress, when non-nil, receives the search's samples (phases and
	// determinism contract: bnb.Sample). Incumbent/Bound are cumulative
	// migration seconds; the root bound is the remaining-benefit bound.
	Progress func(bnb.Sample)
	// ProgressEvery is the "search" cadence; 0 means
	// bnb.DefaultProgressEvery. Ignored without Progress.
	ProgressEvery int
}

// DefaultMaxNodes is the node cap Solve applies when Options.MaxNodes is
// zero. Deployment instances are small (one object per chosen design), so
// the cap is generous headroom, not a working limit.
const DefaultMaxNodes = 2_000_000

// Solve finds the minimum-cumulative-cost deployment schedule by
// depth-first branch-and-bound over permutations, on the shared driver
// (internal/bnb); this file holds only the scheduling problem's own bound,
// branching and state snapshot.
//
// Search: objects are branched in decreasing whole-benefit density (the
// same static order the incumbent tends to follow, so good schedules
// appear early). A visited-state memo prunes permutations that reach an
// already-seen deployed set at no lower cumulative cost — the completion
// cost depends only on the set, so the earlier visit dominates.
//
// Bound: the admissible remaining-benefit bound. With deployed set D and
// remaining set R, any completion builds each o ∈ R exactly once, paying
// at least minBuild(o) (its cheapest source regardless of deployment
// order); and the rate during the k-th remaining build is at least
//
//	ρ_k = max( W(all deployed), W(D) − top_{k−1} marginal benefits )
//
// because per-query times are mins: a set's improvement never exceeds the
// sum of its members' individual improvements. Pairing the sorted build
// times ascending with the ρ sequence (which is non-increasing) gives the
// smallest possible pairing by the rearrangement inequality, so the bound
// never exceeds the true optimal completion cost.
func Solve(p *Problem, opts Options) (*Schedule, error) {
	if err := p.validate(); err != nil {
		return nil, err
	}
	if len(p.Objects) == 0 {
		return &Schedule{Proven: true, FinalRate: p.rateOf(p.Base)}, nil
	}
	s := newSched(p)

	// Greedy benefit-density incumbent.
	inc := greedyOrder(p, s.after)
	incEval, err := Evaluate(p, inc)
	if err != nil {
		return nil, err
	}
	s.Search = bnb.New(bnb.Limits{
		MaxNodes: opts.MaxNodes, Progress: opts.Progress, ProgressEvery: opts.ProgressEvery,
	}, DefaultMaxNodes, incEval.Cum)
	s.bestOrder = inc

	rate := p.rateOf(p.Base)
	// The root bound is the admissible completion bound at the empty
	// prefix — read-only apart from the bound's scratch slices, so
	// computing it cannot perturb the search.
	s.Root(func() float64 { return s.remainingBound(0, p.Base, rate) })
	// With Workers > 1 this pass stops at the frontier depth and the
	// prefixes it leaves behind are searched in parallel.
	s.frontier = s.frontierDepth(opts.Workers)
	s.dfs(0, 0, p.Base, rate, 0)
	s.searchLeaves(opts.Workers)
	s.Final()

	out, err := Evaluate(p, s.bestOrder)
	if err != nil {
		return nil, err
	}
	out.Nodes = s.Nodes
	out.Pruned = s.Pruned
	out.Incumbents = s.Incumbents
	out.Proven = s.Proven
	return out, nil
}

// sched is the scheduling problem on the shared driver: the precomputed
// tables (shared, read-only after construction) and the mutable state of
// one depth-first search; a parallel split clones the mutable part per
// subtree.
type sched struct {
	bnb.Search
	p     *Problem
	n, nQ int
	after []uint64
	// branch is the static exploration order (whole-benefit density
	// descending); minBuild[o] is o's cheapest conceivable build cost;
	// fullRate the workload rate with every object deployed — the
	// admissible floor of every bound slot.
	branch   []int
	minBuild []float64
	fullRate float64

	// Mutable search state.
	path []int
	// timesBuf[d] backs the child times vector at depth d, allocated once
	// per search depth.
	timesBuf [][]float64
	// deltaBuf/buildBuf are the bound's scratch slices.
	deltaBuf []float64
	buildBuf []float64
	// memo[mask] is the lowest cumulative cost any visited permutation
	// reached that deployed set at.
	memo map[uint64]float64
	// bestOrder is the build order behind Search.Best.
	bestOrder []int

	// frontier/leaves drive the parallel split: dfs snapshots state at
	// depth frontier instead of descending (-1: never).
	frontier int
	leaves   []prefix
}

// newSched precomputes the shared tables for p.
func newSched(p *Problem) *sched {
	n := len(p.Objects)
	s := &sched{
		p: p, n: n, nQ: p.numQueries(),
		after: p.afterMask(),
	}
	s.minBuild = make([]float64, n)
	for i := range p.Objects {
		b := p.Objects[i].Build
		for _, sc := range p.Objects[i].From {
			if sc.Cost < b {
				b = sc.Cost
			}
		}
		s.minBuild[i] = b
	}
	// Static branch order: whole-problem benefit density descending, ties
	// by index (sort.SliceStable over the identity permutation).
	density := make([]float64, n)
	for i := range p.Objects {
		density[i] = p.marginalBenefit(p.Base, i) / s.minBuild[i]
	}
	s.branch = make([]int, n)
	for i := range s.branch {
		s.branch[i] = i
	}
	sort.SliceStable(s.branch, func(a, b int) bool { return density[s.branch[a]] > density[s.branch[b]] })
	full := append([]float64(nil), p.Base...)
	for i := range p.Objects {
		p.applyObject(full, full, i)
	}
	s.fullRate = p.rateOf(full)
	s.resetState()
	return s
}

// resetState gives the scheduler fresh mutable search state.
func (s *sched) resetState() {
	s.path = make([]int, 0, s.n)
	s.timesBuf = make([][]float64, s.n+1)
	s.deltaBuf = make([]float64, 0, s.n)
	s.buildBuf = make([]float64, 0, s.n)
	s.memo = make(map[uint64]float64)
	s.bestOrder, s.leaves = nil, nil
}

// timesRow returns the child times buffer for depth d.
func (s *sched) timesRow(d int) []float64 {
	if s.timesBuf[d] == nil {
		s.timesBuf[d] = make([]float64, s.nQ)
	}
	return s.timesBuf[d]
}

// dfs explores completions of the current prefix. mask is the deployed
// set, times the per-query runtimes under it, rate their weighted sum
// (== s.p.rateOf(times)), cum the prefix's cumulative cost.
func (s *sched) dfs(depth int, mask uint64, times []float64, rate, cum float64) {
	if depth == s.frontier {
		s.leaves = append(s.leaves, prefix{
			mask:  mask,
			times: append([]float64(nil), times...),
			rate:  rate,
			cum:   cum,
			path:  append([]int(nil), s.path...),
		})
		return
	}
	if !s.Enter() {
		return
	}
	if depth == s.n {
		if s.Adopt(cum) {
			s.bestOrder = append([]int(nil), s.path...)
		}
		return
	}
	// Visited-state dominance: completions depend only on the deployed
	// set, so a permutation reaching mask at no lower cost than an
	// earlier visit cannot improve on that visit's completions.
	if prev, ok := s.memo[mask]; ok && cum >= prev {
		s.Pruned++
		return
	}
	s.memo[mask] = cum
	if s.Cut(cum + s.remainingBound(mask, times, rate)) {
		return
	}
	for _, o := range s.branch {
		bit := uint64(1) << uint(o)
		if mask&bit != 0 || s.after[o]&^mask != 0 {
			continue
		}
		b := s.p.buildTime(o, mask)
		child := s.timesRow(depth + 1)
		s.p.applyObject(child, times, o)
		s.path = append(s.path, o)
		s.dfs(depth+1, mask|bit, child, s.p.rateOf(child), cum+b*rate)
		s.path = s.path[:len(s.path)-1]
	}
}

// prefix is one frontier node of the parallel split: the search state of
// a depth-d build prefix whose completions form an independent subproblem.
type prefix struct {
	mask  uint64
	times []float64
	rate  float64
	cum   float64
	path  []int
}

// frontierDepth picks the split depth for the given worker count: enough
// prefix permutations to feed the pool; -1 means search sequentially.
func (s *sched) frontierDepth(workers int) int {
	depth, perms := 1, s.n
	for perms < 4*workers && depth < s.n-1 {
		depth++
		perms *= s.n - depth + 1
	}
	if workers <= 1 || depth >= s.n {
		return -1
	}
	return depth
}

// searchLeaves hands the prefixes the enumeration pass snapshotted at the
// frontier to the driver's deterministic Split (node counts differ from
// the sequential search: subtrees prune against a staler incumbent, and
// each carries its own visited-state memo). Without any — a sequential
// search, or an enumeration that pruned everything — it does nothing.
func (s *sched) searchLeaves(workers int) {
	depth, leaves := s.frontier, s.leaves
	s.frontier, s.leaves = -1, nil
	if len(leaves) == 0 {
		return
	}
	orders := make([][]int, len(leaves))
	win := s.Split(len(leaves), workers, func(i int, sub bnb.Search) bnb.Search {
		// Precomputed tables are shared read-only; search state is fresh.
		t := *s
		t.Search = sub
		t.resetState()
		leaf := &leaves[i]
		t.path = append(t.path, leaf.path...)
		t.dfs(depth, leaf.mask, leaf.times, leaf.rate, leaf.cum)
		orders[i] = t.bestOrder
		return t.Search
	})
	if win >= 0 {
		s.bestOrder = orders[win]
	}
}

// remainingBound computes the admissible lower bound on completing from
// the deployed set mask (see Solve's doc comment).
func (s *sched) remainingBound(mask uint64, times []float64, rate float64) float64 {
	deltas := s.deltaBuf[:0]
	builds := s.buildBuf[:0]
	for i := 0; i < s.n; i++ {
		if mask&(1<<uint(i)) != 0 {
			continue
		}
		deltas = append(deltas, s.p.marginalBenefit(times, i))
		builds = append(builds, s.minBuild[i])
	}
	s.deltaBuf, s.buildBuf = deltas, builds
	if len(builds) == 0 {
		return 0
	}
	sort.Float64s(builds)                              // ascending
	sort.Sort(sort.Reverse(sort.Float64Slice(deltas))) // descending
	lb, rho, spent := 0.0, rate, 0.0                   // ρ_1 = W(D) exactly
	for k := range builds {
		if rho < s.fullRate {
			rho = s.fullRate
		}
		lb += builds[k] * rho
		spent += deltas[k]
		rho = rate - spent
	}
	return lb
}
