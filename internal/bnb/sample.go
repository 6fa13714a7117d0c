package bnb

import (
	"fmt"
	"strings"
)

// Sample is one deterministic snapshot of a search's state, emitted
// through Limits.Progress. Samples are keyed to node ordinals — never wall
// clock — so for a fixed (problem, options) pair the emitted sequence is
// bit-identical run to run, and a nil sink is a byte-identical no-op (the
// search takes the exact code paths it takes unobserved; the only sink-on
// side effect is the root bound's scratch-buffer allocation).
//
// Phases:
//
//	"root"      before the first node: the initial incumbent (greedy or
//	            warm-started) against the root lower bound
//	"search"    every ProgressEvery nodes during depth-first search
//	"incumbent" a strict incumbent improvement was just adopted
//	"final"     the search finished (proven, capped, or interrupted)
type Sample struct {
	Phase      string
	Nodes      int
	Pruned     int
	Incumbents int
	// Incumbent is the best value known at the sample (weighted workload
	// seconds for ilp, cumulative migration seconds for deploy).
	Incumbent float64
	// Bound is an admissible lower bound on the optimum: the root
	// relaxation (constant across one solve). 0 when unknown.
	Bound float64
}

// Gap is the absolute incumbent-vs-bound optimality gap (0 when no
// bound is known or the bound already meets the incumbent).
func (ps Sample) Gap() float64 {
	if ps.Bound == 0 || ps.Incumbent == 0 {
		return 0
	}
	if g := ps.Incumbent - ps.Bound; g > 0 {
		return g
	}
	return 0
}

// String renders one sample as a compact fixed-order line.
func (ps Sample) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-9s nodes=%d pruned=%d incumbents=%d", ps.Phase, ps.Nodes, ps.Pruned, ps.Incumbents)
	if ps.Incumbent != 0 {
		fmt.Fprintf(&b, " obj=%.6f", ps.Incumbent)
	}
	if ps.Bound != 0 {
		fmt.Fprintf(&b, " bound=%.6f", ps.Bound)
		if g := ps.Gap(); g > 0 {
			fmt.Fprintf(&b, " gap=%.6f", g)
		}
	}
	return b.String()
}

// DefaultProgressEvery is the "search" node cadence used when
// Limits.ProgressEvery is 0 — frequent enough to see the incumbent
// trajectory on the Fig9/Fig11 node-cap instances (5M nodes → ~76 samples)
// without drowning a trace ring.
const DefaultProgressEvery = 65536
