// Package bnb is the repository's one depth-first branch-and-bound driver.
// It owns everything about a search that is not problem-specific: the node
// cap, wall-clock deadline and interrupt predicate, the node / prune /
// incumbent counters, the strict-improvement incumbent rule, progress
// samples, and the deterministic parallel frontier split. A problem
// (ilp.solver, deploy.sched) embeds a Search, keeps its own bound,
// branching and incumbent snapshot as concrete code, and calls Enter, Cut
// and Adopt from its recursion — the per-node hot loops never cross an
// interface.
package bnb

import (
	"math"
	"time"

	"coradd/internal/par"
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
	// second argument of New), negative means unlimited. In a Split the cap
	// applies per subtree.
	MaxNodes int
	// TimeLimit caps wall time, polled every 1024 nodes; 0 means none. It
	// is the one intentionally nondeterministic cutoff.
	TimeLimit time.Duration
	// Interrupt, when non-nil, is polled once per node with the node count
	// and stops the search when it returns true — the deterministic
	// analogue of TimeLimit. In a Split it sees per-subtree counts and must
	// be safe for concurrent calls.
	Interrupt func(nodes int) bool
	// Progress, when non-nil, receives the search's samples (see Sample);
	// ProgressEvery is the "search" cadence, 0 meaning DefaultProgressEvery.
	Progress      func(Sample)
	ProgressEvery int
}

// Search is the problem-independent state of one depth-first search.
// Problems embed it by value; Split hands each subtree its own copy.
type Search struct {
	// Nodes counts Enter calls, Pruned successful Cuts, Incumbents
	// successful Adopts; after a Split they include every merged subtree.
	Nodes, Pruned, Incumbents int
	// Best is the incumbent value (lower is better).
	Best float64
	// Proven is false once a limit cut the search short.
	Proven bool

	maxNodes  int
	deadline  time.Time
	interrupt func(nodes int) bool
	// progress is nil in subtree copies: only the orchestrating goroutine
	// emits, so samples are ordered and the sink needs no synchronization.
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
		s.emit("root", -1)
	}
}

// Final emits the "final" sample.
func (s *Search) Final() { s.emit("final", -1) }

// Enter counts one node and reports whether the search may expand it; false
// means a limit fired (Proven is cleared) and the caller must return.
func (s *Search) Enter() bool {
	s.Nodes++
	if s.progress != nil && s.Nodes%s.every == 0 {
		s.emit("search", -1)
	}
	if s.Nodes > s.maxNodes ||
		(!s.deadline.IsZero() && s.Nodes%deadlinePoll == 0 && time.Now().After(s.deadline)) ||
		(s.interrupt != nil && s.interrupt(s.Nodes)) {
		s.Proven = false
		return false
	}
	return true
}

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
		s.emit("incumbent", -1)
		return true
	}
	return false
}

// Split searches n independent subtrees — the frontier a depth-limited
// enumeration pass of the same search left behind — on up to workers
// goroutines and merges their outcomes into s. run(i, sub) must search
// subtree i with sub as its embedded Search and return that Search when
// done. Split returns the index of the subtree whose incumbent s adopted
// last, or -1 when none improved on s.Best; the caller takes that
// subtree's solution snapshot.
//
// Determinism: subtree i starts from the incumbent value assembled from
// s.Best plus the results of subtrees 0..i−W (W = worker count) — a fixed
// prefix it explicitly waits for, never a timing-dependent read of
// whichever siblings happen to have finished. Results merge in subtree
// order under the same strict-improvement rule as Adopt, so for a fixed
// (problem, workers) pair every counter and the solution are bit-identical
// run to run, and the solution matches the sequential search (node counts
// differ: later subtrees prune against a slightly staler incumbent).
//
// The wait cannot deadlock: par.ForEach hands out indexes in ascending
// order, so if every worker were blocked, the smallest blocked index i
// waits on some j ≤ i−W, and j — claimed before i, unfinished, and not
// held by a blocked worker — would have to be running on a free one.
func (s *Search) Split(n, workers int, run func(i int, sub Search) Search) int {
	w := workers
	if w > n {
		w = n
	}
	results := make([]Search, n)
	done := make([]chan struct{}, n)
	for i := range done {
		done[i] = make(chan struct{})
	}
	sub := Search{Best: s.Best, Proven: true, maxNodes: s.maxNodes, deadline: s.deadline, interrupt: s.interrupt}
	par.ForEach(n, w, func(i int) {
		defer close(done[i])
		t := sub
		for j := 0; j <= i-w; j++ {
			<-done[j]
			if results[j].Best < t.Best {
				t.Best = results[j].Best
			}
		}
		results[i] = run(i, t)
	})

	// Merge on the calling goroutine, in subtree order: "subtree" samples
	// are as deterministic as everything else.
	winner := -1
	for i := range results {
		r := &results[i]
		s.Nodes += r.Nodes
		s.Pruned += r.Pruned
		s.Incumbents += r.Incumbents
		if !r.Proven {
			s.Proven = false
		}
		if r.Incumbents > 0 && r.Best < s.Best-eps {
			s.Best = r.Best
			winner = i
		}
		s.emit("subtree", i)
	}
	return winner
}

// emit publishes one sample when a sink is attached.
func (s *Search) emit(phase string, subtree int) {
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
		Subtree:    subtree,
	})
}
