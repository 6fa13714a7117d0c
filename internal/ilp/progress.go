package ilp

import (
	"fmt"
	"strings"

	"coradd/internal/bnb"
)

// ProgressSample is the driver's search snapshot (see bnb.Sample for the
// phases), emitted through SolveOptions.Progress and
// deploy.Options.Progress.
type ProgressSample = bnb.Sample

// SolveProfile accumulates the progress samples of one or more solves
// into a textual dump — the cmd/experiments -solveprof surface. A nil
// profile hands out a nil sink, so wiring it unconditionally costs
// nothing when profiling is off.
//
// The recorder is not synchronized: the solver emits samples only from
// the orchestrating goroutine (sequential search, the parallel
// enumeration pass, and the fixed-order merge — never from worker
// tasks), so a profile may back any single solve, but must not be
// shared by solves running concurrently with each other.
type SolveProfile struct {
	// Label prefixes the dump ("fig9/budget=2.0" etc.).
	Label string
	// Samples, in emission order. Boundaries between consecutive solves
	// are visible as "root" phases.
	Samples []ProgressSample
}

// Sink returns a progress sink appending to the profile, or nil for a
// nil receiver.
func (p *SolveProfile) Sink() func(ProgressSample) {
	if p == nil {
		return nil
	}
	return func(ps ProgressSample) { p.Samples = append(p.Samples, ps) }
}

// String renders the recorded trajectory, one sample per line.
func (p *SolveProfile) String() string {
	if p == nil || len(p.Samples) == 0 {
		return "solveprof: no samples (no solve ran, or the search closed before the first cadence)"
	}
	var b strings.Builder
	label := p.Label
	if label == "" {
		label = "solve"
	}
	solves := 0
	for _, ps := range p.Samples {
		if ps.Phase == "root" {
			solves++
		}
	}
	fmt.Fprintf(&b, "solveprof %s: %d samples, %d solve(s)\n", label, len(p.Samples), solves)
	for _, ps := range p.Samples {
		b.WriteString("  ")
		b.WriteString(ps.String())
		b.WriteByte('\n')
	}
	return b.String()
}
