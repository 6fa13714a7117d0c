// Package deploy schedules the physical deployment of a solved design:
// given the objects a designer chose (MVs, fact re-clusterings, corridx
// overlays), the physical state already on disk, and the workload that
// keeps running while the objects are built, it orders the builds to
// minimize the *cumulative* workload cost over the deployment window —
// the objective of Kimura et al.'s companion work on index deployment
// ordering for evolving OLAP workloads.
//
// The model: builds run one at a time; while object k of a schedule is
// being built (taking build(k | deployed prefix) seconds), the workload
// executes continuously at the rate of the current physical state, so the
// window costs
//
//	cum(π) = Σ_k build(π_k | S_{k-1}) · W(S_{k-1}),   S_k = {π_1..π_k}
//
// workload-seconds, where W(S) is the weighted workload runtime with the
// deployed prefix S available (each query on its fastest object, exactly
// the ILP's induced objective). Build costs are prefix-dependent: an
// object buildable by scanning an already-deployed MV (a build-from-MV
// shortcut) gets cheaper once that MV exists. After the last build every
// order reaches the same state, so ordering is purely about how much
// benefit users see *during* the hours the migration takes.
//
// Solve finds the optimal order by branch-and-bound over permutations
// (branchbound.go) seeded with a greedy benefit-density incumbent
// (greedy.go); limits, node accounting, progress and the deterministic
// parallel subtree search are the shared driver's (internal/bnb).
package deploy

import (
	"fmt"
)

// Shortcut is a cheaper build source: once Objects[Src] is deployed, the
// owning object can be built for Cost seconds instead of its base Build.
type Shortcut struct {
	// Src indexes Problem.Objects.
	Src int
	// Cost is the build cost in seconds when Src is already deployed.
	Cost float64
}

// Object is one build the schedule must place.
type Object struct {
	// Name labels the object in schedules.
	Name string
	// Times[q] is query q's runtime in seconds once this object is
	// deployed (+Inf or a huge sentinel when the object cannot serve q).
	Times []float64
	// Build is the build cost in seconds from the always-available
	// sources (the base table, or a pre-deployed object that survives the
	// migration). Must be positive.
	Build float64
	// From lists build-cost shortcuts through other scheduled objects.
	From []Shortcut
	// After lists objects (indexes) that must be deployed before this
	// one — hard precedence constraints.
	After []int
}

// Problem is one deployment-scheduling instance.
type Problem struct {
	// Objects are the builds to order. At most MaxObjects.
	Objects []Object
	// Base[q] is query q's runtime before any scheduled object exists
	// (the current physical state: base table plus surviving objects).
	Base []float64
	// Weights are query frequencies; nil means all 1.
	Weights []float64
}

// MaxObjects bounds the instance size (deployed sets are bitmasks).
const MaxObjects = 63

func (p *Problem) weight(q int) float64 {
	if p.Weights == nil {
		return 1
	}
	return p.Weights[q]
}

func (p *Problem) numQueries() int { return len(p.Base) }

// rateOf sums the weighted per-query times in query order — the one
// summation order used by Evaluate, the greedy incumbent and the search,
// so every path to a deployed set produces bit-identical rates.
func (p *Problem) rateOf(times []float64) float64 {
	total := 0.0
	for q, t := range times {
		total += p.weight(q) * t
	}
	return total
}

// applyObject lowers times elementwise by object o's times, writing into
// dst (dst may alias src).
func (p *Problem) applyObject(dst, src []float64, o int) {
	ts := p.Objects[o].Times
	for q, t := range src {
		if tc := ts[q]; tc < t {
			t = tc
		}
		dst[q] = t
	}
}

// marginalBenefit is the weighted workload improvement of deploying
// object o on top of the given per-query times — the one benefit
// definition shared by the greedy incumbent, the branch order and the
// remaining-benefit bound (summed in query order, like rateOf).
func (p *Problem) marginalBenefit(times []float64, o int) float64 {
	delta := 0.0
	ts := p.Objects[o].Times
	for q, t := range times {
		if tc := ts[q]; tc < t {
			delta += p.weight(q) * (t - tc)
		}
	}
	return delta
}

// Rate returns the workload cost per round W(S) with the given objects
// deployed.
func (p *Problem) Rate(deployed []int) float64 {
	times := append([]float64(nil), p.Base...)
	for _, o := range deployed {
		p.applyObject(times, times, o)
	}
	return p.rateOf(times)
}

// buildTime returns object o's build cost given the deployed mask: its
// base Build, or the cheapest shortcut whose source is deployed.
func (p *Problem) buildTime(o int, mask uint64) float64 {
	b := p.Objects[o].Build
	for _, s := range p.Objects[o].From {
		if mask&(1<<uint(s.Src)) != 0 && s.Cost < b {
			b = s.Cost
		}
	}
	return b
}

// buildSource returns the index of the deployed shortcut source realizing
// buildTime, or -1 when the base Build is (weakly) cheapest. Ties prefer
// the base source, then the earlier shortcut in declaration order.
func (p *Problem) buildSource(o int, mask uint64) int {
	b := p.Objects[o].Build
	src := -1
	for _, s := range p.Objects[o].From {
		if mask&(1<<uint(s.Src)) != 0 && s.Cost < b {
			b = s.Cost
			src = s.Src
		}
	}
	return src
}

// validate checks instance well-formedness.
func (p *Problem) validate() error {
	n := len(p.Objects)
	if n > MaxObjects {
		return fmt.Errorf("deploy: %d objects exceeds the %d-object limit", n, MaxObjects)
	}
	nQ := p.numQueries()
	if p.Weights != nil && len(p.Weights) != nQ {
		return fmt.Errorf("deploy: %d weights for %d queries", len(p.Weights), nQ)
	}
	for i := range p.Objects {
		o := &p.Objects[i]
		if len(o.Times) != nQ {
			return fmt.Errorf("deploy: object %d has %d times for %d queries", i, len(o.Times), nQ)
		}
		if !(o.Build > 0) {
			return fmt.Errorf("deploy: object %d has non-positive build cost %v", i, o.Build)
		}
		for _, s := range o.From {
			if s.Src < 0 || s.Src >= n || s.Src == i {
				return fmt.Errorf("deploy: object %d has invalid shortcut source %d", i, s.Src)
			}
			if !(s.Cost > 0) {
				return fmt.Errorf("deploy: object %d has non-positive shortcut cost %v", i, s.Cost)
			}
		}
		for _, a := range o.After {
			if a < 0 || a >= n || a == i {
				return fmt.Errorf("deploy: object %d has invalid precedence %d", i, a)
			}
		}
	}
	// Precedence must admit at least one schedule (no cycles): peel
	// objects whose prerequisites are all peeled.
	var done uint64
	for peeled := 0; peeled < n; {
		progressed := false
		for i := range p.Objects {
			if done&(1<<uint(i)) != 0 {
				continue
			}
			ok := true
			for _, a := range p.Objects[i].After {
				if done&(1<<uint(a)) == 0 {
					ok = false
					break
				}
			}
			if ok {
				done |= 1 << uint(i)
				peeled++
				progressed = true
			}
		}
		if !progressed {
			return fmt.Errorf("deploy: cyclic precedence constraints")
		}
	}
	return nil
}

// afterMask precomputes each object's prerequisite bitmask.
func (p *Problem) afterMask() []uint64 {
	out := make([]uint64, len(p.Objects))
	for i := range p.Objects {
		for _, a := range p.Objects[i].After {
			out[i] |= 1 << uint(a)
		}
	}
	return out
}

// Schedule is an ordered deployment plan with its cost accounting.
type Schedule struct {
	// Order is the build order (indexes into Problem.Objects).
	Order []int
	// Builds[k] is the build cost of Order[k] given its deployed prefix;
	// Rates[k] the workload rate during that build; Sources[k] the
	// shortcut source used (-1 = the base source).
	Builds  []float64
	Rates   []float64
	Sources []int
	// Cum is Σ_k Builds[k]·Rates[k], the cumulative workload cost over
	// the deployment window in workload-seconds.
	Cum float64
	// FinalRate is the workload rate once everything is deployed.
	FinalRate float64
	// Nodes is the number of branch-and-bound nodes explored (0 for
	// Evaluate); Proven reports whether optimality was proven. Pruned
	// counts nodes cut by the bound or the visited-state memo, and
	// Incumbents counts strict improvements adopted during the search —
	// diagnostics exported to /metrics, summed across subtrees in
	// parallel mode.
	Nodes      int
	Pruned     int
	Incumbents int
	Proven     bool
}

// Evaluate prices an explicit build order under the problem's cost model,
// bit-identically to how Solve prices the same order. The order must be a
// precedence-respecting permutation of all objects.
func Evaluate(p *Problem, order []int) (*Schedule, error) {
	if err := p.validate(); err != nil {
		return nil, err
	}
	if len(order) != len(p.Objects) {
		return nil, fmt.Errorf("deploy: order has %d entries for %d objects", len(order), len(p.Objects))
	}
	after := p.afterMask()
	s := &Schedule{
		Order:   append([]int(nil), order...),
		Builds:  make([]float64, len(order)),
		Rates:   make([]float64, len(order)),
		Sources: make([]int, len(order)),
	}
	times := append([]float64(nil), p.Base...)
	var mask uint64
	for k, o := range order {
		if o < 0 || o >= len(p.Objects) || mask&(1<<uint(o)) != 0 {
			return nil, fmt.Errorf("deploy: order is not a permutation (entry %d = %d)", k, o)
		}
		if after[o]&^mask != 0 {
			return nil, fmt.Errorf("deploy: order violates precedence at %s", p.Objects[o].Name)
		}
		rate := p.rateOf(times)
		b := p.buildTime(o, mask)
		s.Builds[k] = b
		s.Rates[k] = rate
		s.Sources[k] = p.buildSource(o, mask)
		s.Cum += b * rate
		p.applyObject(times, times, o)
		mask |= 1 << uint(o)
	}
	s.FinalRate = p.rateOf(times)
	return s, nil
}
