// Package bnb is the repository's one depth-first branch-and-bound driver.
// It owns everything about a search that is not problem-specific: the node
// cap, wall-clock deadline and interrupt predicate, the node / prune /
// incumbent counters, the strict-improvement incumbent rule and progress
// samples. A problem (ilp.solver, deploy.sched) embeds a Search, keeps its
// own bound, branching and incumbent snapshot as concrete code, and calls
// Enter, Cut and Adopt from its recursion — the per-node hot loops never
// cross an interface.
package bnb

import (
	"math"
	"time"
)

// eps is the strict-improvement margin: a value replaces the incumbent, and
// a bound fails to prune, only when it is better by more than this.
const eps = 1e-12

// deadlinePoll is the node cadence of the wall-clock deadline check.
const deadlinePoll = 1024

// Limits are the caller-facing knobs of one search, passed through from
// the problem's own options struct.
type Limits struct {
	// MaxNodes caps explored nodes: 0 means the problem's default (the
	// second argument of New), negative means unlimited.
	MaxNodes int
	// TimeLimit caps wall time, polled every 1024 nodes; 0 means none. It
	// is the one intentionally nondeterministic cutoff.
	TimeLimit time.Duration
	// Interrupt, when non-nil, is polled once per node with the node count
	// and stops the search when it returns true — the deterministic
	// analogue of TimeLimit.
	Interrupt func(nodes int) bool
	// Progress, when non-nil, receives the search's samples (see Sample);
	// ProgressEvery is the "search" cadence, 0 meaning DefaultProgressEvery.
	Progress      func(Sample)
	ProgressEvery int
}

// Search is the problem-independent state of one depth-first search.
// Problems embed it by value.
type Search struct {
	// Nodes counts Enter calls, Pruned successful Cuts, Incumbents
	// successful Adopts.
	Nodes, Pruned, Incumbents int
	// Best is the incumbent value (lower is better).
	Best float64
	// Proven is false once a limit cut the search short.
	Proven bool

	maxNodes  int
	deadline  time.Time
	interrupt func(nodes int) bool
	progress  func(Sample)
	every     int
	rootBound float64
}

// New starts a search from the given incumbent value.
func New(l Limits, defaultMaxNodes int, incumbent float64) Search {
	s := Search{
		Best: incumbent, Proven: true,
		maxNodes: l.MaxNodes, interrupt: l.Interrupt,
		progress: l.Progress, every: l.ProgressEvery,
	}
	if s.maxNodes == 0 {
		s.maxNodes = defaultMaxNodes
	} else if s.maxNodes < 0 {
		s.maxNodes = math.MaxInt
	}
	if l.TimeLimit > 0 {
		s.deadline = time.Now().Add(l.TimeLimit)
	}
	if s.every <= 0 {
		s.every = DefaultProgressEvery
	}
	return s
}

// Root emits the "root" sample. bound computes the admissible bound at the
// empty prefix and is called only when a sink is attached, so an unobserved
// search pays nothing for it.
func (s *Search) Root(bound func() float64) {
	if s.progress != nil {
		s.rootBound = bound()
		s.emit("root")
	}
}

// Final emits the "final" sample.
func (s *Search) Final() { s.emit("final") }

// Enter counts one node and reports whether the search may expand it; false
// means a limit fired (Proven is cleared) and the caller must return.
func (s *Search) Enter() bool {
	s.Nodes++
	if s.progress != nil && s.Nodes%s.every == 0 {
		s.emit("search")
	}
	if s.Nodes > s.maxNodes ||
		(!s.deadline.IsZero() && s.Nodes%deadlinePoll == 0 && time.Now().After(s.deadline)) ||
		(s.interrupt != nil && s.interrupt(s.Nodes)) {
		s.Proven = false
		return false
	}
	return true
}

// Explored is Nodes clipped to the node cap: a search the cap stopped
// reports exactly its cap, without the node it refused or the calls that
// unwound the recursion after it.
func (s *Search) Explored() int { return min(s.Nodes, s.maxNodes) }

// Cuts reports whether a node whose completions are worth at least bound
// cannot strictly improve on the incumbent.
func (s *Search) Cuts(bound float64) bool { return bound >= s.Best-eps }

// Cut is Cuts, counting the prune when it holds.
func (s *Search) Cut(bound float64) bool {
	if s.Cuts(bound) {
		s.Pruned++
		return true
	}
	return false
}

// Adopt makes v the incumbent value when it strictly improves on the
// current one and reports whether it did; the caller then snapshots its
// own solution state.
func (s *Search) Adopt(v float64) bool {
	if v < s.Best-eps {
		s.Best = v
		s.Incumbents++
		s.emit("incumbent")
		return true
	}
	return false
}

// emit publishes one sample when a sink is attached.
func (s *Search) emit(phase string) {
	if s.progress == nil {
		return
	}
	s.progress(Sample{
		Phase:      phase,
		Nodes:      s.Nodes,
		Pruned:     s.Pruned,
		Incumbents: s.Incumbents,
		Incumbent:  s.Best,
		Bound:      s.rootBound,
	})
}
