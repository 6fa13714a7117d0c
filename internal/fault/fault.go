// Package fault is the repository's deterministic fault-injection layer:
// the adaptive observe → redesign → migrate loop (internal/adapt) assumed
// nothing ever fails, but the deployment window it optimizes is exactly
// where failures land in a long-running system — builds error out or run
// long, redesign solves overrun their budget, and a process crash loses
// an in-flight migration. The Injector here makes all of that REPLAYABLE:
// faults are drawn from a seeded RNG in observation order on the
// simulated timeline (the injected-clock pattern of internal/workload),
// so one (seed, schedule, stream) triple produces one fault trace, one
// retry timeline and one recovery sequence — the chaos ablation's
// requirement.
//
// Fault classes, and the degradation rule each exercises:
//
//   - Build failures (FailProb, or a scripted FailBuilds table): the
//     attempt consumes its full build seconds, then the controller
//     retries under RetryPolicy — capped exponential backoff with
//     deterministic jitter, every waited second charged to the simulated
//     timeline. A build that exhausts its retries is SKIPPED and the
//     remaining schedule re-solved (adapt's mid-migration replanning).
//   - Build delays (DelayProb/DelayFactor): the attempt takes
//     (1+factor)× its modeled seconds — slow I/O, not an error.
//   - Solve timeouts (SolveNodeCap): redesign solves are cut after a
//     fixed node count through ilp.SolveOptions.Interrupt — the
//     deterministic analogue of a wall-clock deadline — and the
//     controller adopts the best warm-started incumbent unproven.
//   - Crashes (CrashAfterBuilds): the process dies once the scheduled
//     build lands and journals; the harness restarts it from its captured
//     state, migration journal included (adapt.State via adapt.Restore).
//
// The injector is an event source, not a hook inside the controller's
// decisions: the controller draws each build attempt's Outcome as the
// attempt starts and delivers it as the attempt's completion event —
// landed, failed or crashed. A nil *Injector draws nothing, so fault-free
// runs are byte-identical to builds without this package.
package fault

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"
)

// ErrCrash is the injected process-crash signal: the adaptive controller
// returns it (wrapped) when the injector's crash schedule fires, leaving
// its migration journal intact; adapt.Restore rebuilds the controller
// from the state it captured.
var ErrCrash = errors.New("fault: injected crash")

// Outcome is the injected fate of one build attempt.
type Outcome struct {
	// Fail reports an injected build failure; the attempt still consumes
	// its full build seconds before the failure surfaces.
	Fail bool
	// DelayFactor extends a successful attempt to (1+DelayFactor)× its
	// modeled build seconds. Zero on failed attempts.
	DelayFactor float64
	// Crash reports that the process dies once this attempt's build lands:
	// the attempt is a CrashAfterBuilds ordinal.
	Crash bool
}

// Config tunes an Injector. The zero value injects nothing.
type Config struct {
	// Seed drives every probabilistic draw. Draws happen in call order,
	// which the single-timeline controller serializes, so one seed
	// yields one fault trace per (schedule, stream).
	Seed int64
	// FailProb is the per-attempt probability a build fails.
	FailProb float64
	// MaxFailsPerBuild caps the injected failures per object (by name):
	// after that many, further attempts of the same object succeed. It
	// bounds fault mass so an unlucky seed cannot starve a migration
	// forever; 0 means unbounded.
	MaxFailsPerBuild int
	// FailBuilds scripts exact failure counts per object name, overriding
	// the probabilistic draw for those objects: the first N attempts of
	// the named build fail, later ones succeed. The deterministic handle
	// for aiming a fault at a chosen step.
	FailBuilds map[string]int
	// DelayProb is the per-attempt probability a successful build is
	// delayed; DelayFactor the relative slowdown it then suffers.
	DelayProb   float64
	DelayFactor float64
	// SolveNodeCap cuts every redesign solve after this many
	// branch-and-bound nodes (via ilp.SolveOptions.Interrupt) — the
	// deterministic solve timeout. 0 injects none.
	SolveNodeCap int
	// CrashAfterBuilds lists completed-build ordinals (1-based, counted
	// across the whole run) after which the controller crashes: after the
	// k-th build lands and journals, the controller returns ErrCrash. Each
	// entry fires once.
	CrashAfterBuilds []int
}

// Injector draws faults deterministically. Nil-receiver safe: a nil
// injector is the disabled fault layer and never draws.
type Injector struct {
	cfg    Config
	rng    *rand.Rand
	fails  map[string]int // injected failures so far, per object name
	builds int            // successful attempts drawn so far
}

// New builds an injector; cfg.Seed seeds the draw stream.
func New(cfg Config) *Injector {
	return &Injector{
		cfg:   cfg,
		rng:   rand.New(rand.NewSource(cfg.Seed)),
		fails: make(map[string]int),
	}
}

// BuildAttempt draws the fate of the next attempt of the named build.
// Scripted FailBuilds entries consume no randomness; probabilistic
// attempts draw once for failure and, on success, once for delay — a
// fixed draw shape per attempt, so fault traces replay. A successful
// attempt counts toward the crash schedule: one attempt is in flight at a
// time and it lands before the next starts, so its ordinal is its build's.
func (in *Injector) BuildAttempt(name string) (o Outcome) {
	if in == nil {
		return o
	}
	if n, ok := in.cfg.FailBuilds[name]; ok {
		o.Fail = in.fails[name] < n
	} else if in.cfg.FailProb > 0 && in.rng.Float64() < in.cfg.FailProb &&
		(in.cfg.MaxFailsPerBuild <= 0 || in.fails[name] < in.cfg.MaxFailsPerBuild) {
		o.Fail = true
	} else if in.cfg.DelayProb > 0 && in.rng.Float64() < in.cfg.DelayProb {
		o.DelayFactor = in.cfg.DelayFactor
	}
	if o.Fail {
		in.fails[name]++
		return o
	}
	in.builds++
	o.Crash = slices.Contains(in.cfg.CrashAfterBuilds, in.builds)
	return o
}

// SolveInterrupt returns the deterministic solve-deadline predicate for
// one redesign solve (for ilp.SolveOptions.Interrupt), or nil when no
// solve timeout is injected.
func (in *Injector) SolveInterrupt() func(nodes int) bool {
	if in == nil || in.cfg.SolveNodeCap <= 0 {
		return nil
	}
	cap := in.cfg.SolveNodeCap
	return func(nodes int) bool { return nodes >= cap }
}

// Jitter draws the retry policy's deterministic jitter factor in [-1, 1).
func (in *Injector) Jitter() float64 {
	if in == nil {
		return 0
	}
	return 2*in.rng.Float64() - 1
}

// RetryPolicy is capped exponential backoff with deterministic jitter:
// the wait before retry attempt k (1-based) is
//
//	min(Base·Factor^(k−1), Max) · (1 + JitterFrac·jitter)
//
// with jitter drawn from the Injector's seeded RNG, so one seed yields
// one backoff timeline. Waits are simulated seconds, charged to the
// controller's timeline like build seconds — retrying is not free, it is
// workload served at the un-migrated rate.
type RetryPolicy struct {
	// Retries is the attempt budget after the first failure; a build
	// failing Retries+1 times total is skipped and the remaining schedule
	// re-solved. Default 3.
	Retries int
	// Base is the first wait in seconds (default 1); Factor the backoff
	// multiplier (default 2); Max the per-wait cap (default 60).
	Base, Factor, Max float64
	// JitterFrac is the relative jitter amplitude in [0, 1). Default 0.1.
	JitterFrac float64
}

// Fill substitutes defaults for unset fields, individually.
func (p RetryPolicy) Fill() RetryPolicy {
	if p.Retries <= 0 {
		p.Retries = 3
	}
	if p.Base <= 0 {
		p.Base = 1
	}
	if p.Factor <= 1 {
		p.Factor = 2
	}
	if p.Max <= 0 {
		p.Max = 60
	}
	if p.JitterFrac <= 0 {
		p.JitterFrac = 0.1
	}
	return p
}

// Wait returns the backoff before retry attempt k (1-based), drawing the
// jitter from in (zero jitter when in is nil).
func (p RetryPolicy) Wait(k int, in *Injector) float64 {
	if k < 1 {
		k = 1
	}
	w := p.Base
	for i := 1; i < k; i++ {
		w *= p.Factor
		if w >= p.Max {
			break
		}
	}
	if w > p.Max {
		w = p.Max
	}
	return w * (1 + p.JitterFrac*in.Jitter())
}

// String summarizes the policy for traces.
func (p RetryPolicy) String() string {
	return fmt.Sprintf("retry(%d, base %.3gs, ×%.3g, cap %.3gs, jitter ±%.0f%%)",
		p.Retries, p.Base, p.Factor, p.Max, 100*p.JitterFrac)
}
