// Package adapt closes the loop the batch pipeline leaves open: a design
// is solved for the workload observed *yesterday*, deployed into traffic
// that keeps moving, and is stale by the time the migration finishes. The
// controller couples the online workload monitor (internal/workload) to
// the solve/deploy data plane:
//
//	observe → detect drift → incremental redesign → schedule migration
//	       → deploy step by step → replan mid-migration from measured rates
//
// Its decisions are one transition function (step.go): events in — an
// observed query with its measured seconds, a price, solve or build
// completion, a crash — commands out: price, solve, build, publish. The
// Controller is the one executor of those commands: it measures on the
// simulated substrate, runs the warm-started CORADD pipeline and the
// migration scheduler, draws every fault from the injector and appends to
// the one event log. Queries, builds and backoff waits share one
// simulated timeline, the monitor's clock; measurement and solvers are
// deterministic, so one stream replays to one trace (DESIGN.md §2.7–2.8).
package adapt

import (
	"fmt"

	"coradd/internal/candgen"
	"coradd/internal/costmodel"
	"coradd/internal/deploy"
	"coradd/internal/designer"
	"coradd/internal/exec"
	"coradd/internal/fault"
	"coradd/internal/feedback"
	"coradd/internal/obs"
	"coradd/internal/query"
	"coradd/internal/workload"
)

// Config tunes a Controller.
type Config struct {
	// Budget is the space budget every redesign solves for, in bytes.
	Budget int64
	// Cand configures candidate generation for redesigns.
	Cand candgen.Config
	// FB configures the redesign's ILP feedback loop. A zero FB.Solve
	// takes the designer inputs' Common.Solve limits.
	FB feedback.Config
	// Deploy tunes the migration scheduler.
	Deploy deploy.Options
	// Monitor tunes the workload monitor (half-life, drift thresholds).
	Monitor workload.Config
	// CheckEvery is the drift-check cadence in observations. Default 16.
	CheckEvery int
	// MinGap is the minimum simulated seconds between redesigns, so a
	// thrashing mix cannot trigger back-to-back solver runs. Default 0.
	MinGap float64
	// ReplanTolerance is the relative divergence between the measured
	// workload rate of a deployed migration prefix and the rate the
	// schedule assumed before the remaining schedule is re-solved
	// (|measured/modeled − 1| > tol). Negative disables replanning.
	// Default 0.25.
	ReplanTolerance float64
	// Cache supplies a shared materialization cache; nil builds a private
	// one.
	Cache *designer.ObjectCache
	// Faults is the source of injected build failures, delays, solve
	// cutoffs and crashes (internal/fault); nil injects none.
	Faults *fault.Injector
	// Retry bounds how build failures are retried (capped exponential
	// backoff with deterministic jitter); zero fields take fault.RetryPolicy
	// defaults. A build failing more than Retry.Retries times is skipped
	// and the remaining schedule re-solved.
	Retry fault.RetryPolicy
	// Metrics, when non-nil, exports the controller's metrics under the
	// coradd_adapt_ prefix (internal/obs); nil handles are no-ops.
	Metrics *obs.Registry
	// Trace, when non-nil, mirrors the event log plus each solve's
	// telemetry, stamped with the simulated clock — never wall time, so a
	// deterministic stream replays to a byte-identical event sequence.
	Trace *obs.Tracer
}

func (c *Config) fill() {
	if c.CheckEvery <= 0 {
		c.CheckEvery = 16
	}
	if c.ReplanTolerance == 0 {
		c.ReplanTolerance = 0.25
	}
	c.Retry = c.Retry.Fill()
	if c.Cache == nil {
		c.Cache = designer.NewObjectCache()
	}
}

// EventKind classifies trace events.
type EventKind int

const (
	// EventRedesign is a drift-triggered redesign, no-change outcomes too.
	EventRedesign EventKind = iota
	// EventBuild is one completed migration build.
	EventBuild
	// EventReplan is a mid-migration re-solve of the remaining schedule.
	EventReplan
	// EventMigrationDone marks a fully deployed target design.
	EventMigrationDone
	// EventBuildFailed is one injected build failure, retried after backoff.
	EventBuildFailed
	// EventBuildSkipped is a build abandoned after exhausting its retries.
	EventBuildSkipped
	// EventSolveDegraded is a redesign adopted unproven at its deadline.
	EventSolveDegraded
	// EventResume is a controller rebuilt by Restore.
	EventResume
	nEventKinds
)

var eventNames = [nEventKinds]string{"redesign", "build", "replan", "migrated",
	"build-failed", "build-skipped", "solve-degraded", "resume"}

// String names the kind.
func (k EventKind) String() string {
	if k >= 0 && k < nEventKinds {
		return eventNames[k]
	}
	return fmt.Sprintf("event(%d)", int(k))
}

// Event is one trace entry.
type Event struct {
	Kind EventKind
	// Clock is the simulated time of the event; Observed the observation
	// count when it fired.
	Clock    float64
	Observed int
	// Detail is a human-readable summary.
	Detail string
}

// RedesignInfo records one drift-triggered redesign for telemetry and for
// the warm-vs-cold solver comparison of the adapt ablation.
type RedesignInfo struct {
	// Clock is when the redesign ran; Drift the report that triggered it.
	Clock float64
	Drift workload.DriftReport
	// Snapshot is the decayed template workload the redesign solved for.
	Snapshot query.Workload
	// Solve is the final (warm-started) selection instance and solution.
	Solve *feedback.Result
	// Design is the redesigned target; Nodes its total solver nodes.
	Design *designer.Design
	Nodes  int
	// Changed reports whether the redesign differed from the incumbent
	// (an unchanged redesign only rebases the drift baseline).
	Changed bool
	// Proven reports whether every selection solve proved optimality;
	// false means the solve hit its deadline (Common.Solve's limits or an
	// injected node cap) and the warm incumbent was adopted unproven.
	Proven bool
}

// Report is the controller's cumulative telemetry.
type Report struct {
	// Observed is the number of processed queries; Clock the simulated
	// time; Cum the cumulative workload-seconds (identical to Clock
	// advanced by query execution, the adaptive analogue of deploy's
	// Σ build·rate objective).
	Observed int
	Clock    float64
	Cum      float64
	// Events is the trace; Redesigns/Replans/BuildsDone the counters.
	Events     []Event
	Redesigns  int
	Replans    int
	BuildsDone int
	// Retries counts injected build failures that were retried;
	// SkippedBuilds builds abandoned after retry exhaustion; Degraded
	// redesigns adopted unproven after a solve deadline.
	Retries       int
	SkippedBuilds int
	Degraded      int
	// RedesignLog records every redesign, in order.
	RedesignLog []*RedesignInfo
}

// Controller drives the adaptive loop over a stream of executed queries:
// it holds the transition state and executes its commands. Not safe for
// concurrent use (the stream is a single timeline); only a Solve may run
// on another goroutine.
type Controller struct {
	cfg    Config
	common designer.Common // W is replaced by each snapshot
	// model prices redesigns, routing, migration schedules and drift costs.
	model *costmodel.Aware

	// Mon is the workload monitor, exported for inspection; its clock is
	// the controller's simulated clock.
	Mon *workload.Monitor
	s   *state

	// build is the head build's attempt in flight: it lands once the clock
	// passes done, with the fate the injector drew when it started.
	build *attempt

	// rates and attr memoize each template's measured seconds and
	// attribution trace on ratesOn, the deployed design (a rates hit is
	// preceded by the miss that wrote attr); lbCache its lower-bound
	// estimate; calib the per-(template, object) serve record of the whole
	// stream, Calibration's input.
	rates   map[string]float64
	ratesOn *designer.Design
	attr    map[string]exec.PlanTrace
	lbCache map[string]float64
	calib   map[string]*designer.TemplateCalibration

	// The event log (Report.Events), its counts by kind, the RedesignLog.
	events    []Event
	counts    [nEventKinds]int
	redesigns []*RedesignInfo

	obs ctlObs
	tr  *obs.Tracer
}

type attempt struct {
	name          string
	seconds, done float64
	fate          fault.Outcome
}

// New builds a controller over the designer inputs in common (W is
// ignored; the monitor supplies each redesign's workload) with initial as
// the already-deployed design, against which drift is measured.
func New(common designer.Common, initial *designer.Design, cfg Config) (*Controller, error) {
	if initial == nil {
		return nil, fmt.Errorf("adapt: an initial deployed design is required")
	}
	if cfg.Budget <= 0 {
		return nil, fmt.Errorf("adapt: a positive space budget is required")
	}
	cfg.fill()
	c := &Controller{
		cfg:     cfg,
		common:  common,
		model:   costmodel.NewAware(common.St, common.Disk),
		rates:   make(map[string]float64),
		attr:    make(map[string]exec.PlanTrace),
		lbCache: make(map[string]float64),
		calib:   make(map[string]*designer.TemplateCalibration),
		obs:     newCtlObs(cfg.Metrics),
		tr:      cfg.Trace,
	}
	c.s = newState(cfg, c, initial, common.W)
	c.Mon = c.s.mon
	return c, nil
}

// Clock returns the simulated time in seconds.
func (c *Controller) Clock() float64 { return c.s.clock }

// Model returns the cost model the controller prices everything through.
// It keeps no estimates between calls and is safe for concurrent use, so a
// serving path may price through it while the controller runs.
func (c *Controller) Model() *costmodel.Aware { return c.model }

// Incumbent returns the current target design (the deployed design, or
// the migration target while builds are in flight).
func (c *Controller) Incumbent() *designer.Design { return c.s.incumbent }

// Deployed returns the design physically serving queries right now.
func (c *Controller) Deployed() *designer.Design { return c.s.deployed }

// Migrating reports whether a migration is in flight.
func (c *Controller) Migrating() bool { return c.s.mig != nil }

// Solving reports whether a Solve the controller issued has not landed.
func (c *Controller) Solving() bool { return c.s.solving }

// Journal returns a deep copy of the latest migration's step journal, or nil.
func (c *Controller) Journal() *deploy.Journal { return c.s.journal.Clone() }

// Report returns a snapshot of the telemetry.
func (c *Controller) Report() Report {
	n := c.counts
	return Report{
		Observed: c.s.observed, Clock: c.s.clock, Cum: c.s.clock,
		Events:    append([]Event(nil), c.events...),
		Redesigns: n[EventRedesign], Replans: n[EventReplan], BuildsDone: n[EventBuild],
		Retries: n[EventBuildFailed], SkippedBuilds: n[EventBuildSkipped], Degraded: n[EventSolveDegraded],
		RedesignLog: append([]*RedesignInfo(nil), c.redesigns...),
	}
}

// Process executes one query of the stream on the simulated substrate and
// returns its measured seconds, which advance the clock: builds that
// landed meanwhile deploy, the drift check runs on its cadence, and every
// solve this issues runs inline. Process never panics: a panic below it —
// including one re-raised from a par.ForEach worker (*par.WorkerPanic,
// which carries the worker's original stack) — is recovered into the
// returned error. An injected crash surfaces as an error wrapping
// fault.ErrCrash with the migration journal intact; rebuild with State
// and Restore to continue.
func (c *Controller) Process(q *query.Query) (float64, error) {
	sec, sv, err := c.Observe(q)
	for sv != nil && err == nil {
		sv.Run()
		sv, err = c.Land(sv)
	}
	if err != nil {
		sec = 0
	}
	return sec, err
}

// Observe is Process for a caller that runs solves itself: a solve the
// observation issues is returned unrun. Run it on any goroutine and hand
// it back to Land; observations may keep arriving meanwhile, but no drift
// check runs and no build starts until it lands.
func (c *Controller) Observe(q *query.Query) (sec float64, sv *Solve, err error) {
	defer recoverInto(&err, "processing", q)
	sec, key, err := c.priceTemplate(q)
	if err != nil {
		return 0, nil, err
	}
	c.recordServe(key, sec)
	c.obs.observations.Inc()
	sv, err = c.run(c.s.step(event{kind: evObserve, q: q, x: sec}))
	return sec, sv, err
}

// Land feeds a run Solve back, on the controller's goroutine, and
// continues the timeline; like Observe it returns the next solve unrun.
func (c *Controller) Land(sv *Solve) (next *Solve, err error) {
	defer recoverInto(&err, "landing a solve", nil)
	if sv.info != nil {
		c.redesigns = append(c.redesigns, sv.info)
	}
	if next, err = c.run(c.s.step(event{kind: evSolved, solve: sv})); err == nil {
		err = sv.err
	}
	return next, err
}

// recoverInto turns a panic while doing what (to q) into *err.
func recoverInto(err *error, what string, q *query.Query) {
	if r := recover(); r != nil {
		if q != nil {
			what += " " + q.Name
		}
		e, ok := r.(error)
		if !ok {
			e = fmt.Errorf("%v", r)
		}
		*err = fmt.Errorf("adapt: panic while %s: %w", what, e)
	}
}

// Run processes a whole stream and returns the final report.
func (c *Controller) Run(stream []*query.Query) (Report, error) {
	for _, q := range stream {
		if _, err := c.Process(q); err != nil {
			return c.Report(), err
		}
	}
	return c.Report(), nil
}

// run executes cmds and everything their completions lead to, landing the
// build attempt in flight once the clock passes it; it stops at a solve.
func (c *Controller) run(cmds []command) (*Solve, error) {
	defer c.syncGauges()
	for {
		for len(cmds) > 0 {
			cmd := cmds[0]
			cmds = cmds[1:]
			switch cmd.kind {
			case cmdPublish:
				c.publish(cmd.ev)
			case cmdPrice:
				rate, err := c.measuredRate(cmd.w)
				if err != nil {
					return nil, err
				}
				cmds = append(cmds, c.s.step(event{kind: evPriced, x: rate, w: cmd.w, at: cmd.at})...)
			case cmdBuild:
				c.startBuild(cmd)
			case cmdSolve:
				cmd.solve.c = c
				return cmd.solve, nil
			}
		}
		b := c.build
		if b == nil || c.s.clock < b.done {
			return nil, nil
		}
		c.build = nil
		if b.fate.Fail {
			cmds = c.s.step(event{kind: evBuildFailed, at: b.done})
			continue
		}
		// The step's simulated duration, injected slowdown included.
		c.obs.buildSeconds.Observe(b.seconds * (1 + b.fate.DelayFactor))
		cmds = c.s.step(event{kind: evBuilt, at: b.done})
		if b.fate.Crash {
			// The journal and the log keep the landed build; the work it led
			// to dies with the process.
			for _, cmd := range cmds {
				if cmd.kind == cmdPublish {
					c.publish(cmd.ev)
				}
			}
			c.s.step(event{kind: evCrash})
			j := c.s.journal
			return nil, fmt.Errorf("adapt: %w after build %s (journal: %d done, %d remaining)",
				fault.ErrCrash, b.name, len(j.Done), len(j.Next))
		}
	}
}

// startBuild begins an attempt of a migration build: a retry first waits
// its backoff, then the injector draws the attempt's fate up front.
func (c *Controller) startBuild(cmd command) {
	at := cmd.at
	if cmd.retry > 0 {
		wait := c.cfg.Retry.Wait(cmd.retry, c.cfg.Faults)
		c.publish(Event{Kind: EventBuildFailed, Detail: fmt.Sprintf("build %s failed (attempt %d/%d); retrying in %.2fs",
			cmd.name, cmd.retry, c.cfg.Retry.Retries+1, wait)})
		at += wait
	}
	fate := c.cfg.Faults.BuildAttempt(cmd.name)
	c.build = &attempt{name: cmd.name, seconds: cmd.seconds, fate: fate, done: at + cmd.seconds*(1+fate.DelayFactor)}
}

// publish is the event log's one append: Report.Events keeps its
// controller events, and the tracer, counters and metrics mirror them.
func (c *Controller) publish(e Event) {
	e.Clock, e.Observed = c.s.clock, c.s.observed
	if e.Kind == kindCheck {
		c.obs.driftChecks.Inc()
		if e.Detail != "" {
			c.obs.driftTriggers.Inc()
			c.tr.Event(e.Clock, "drift", obs.F("report", e.Detail))
		}
		return
	}
	c.events = append(c.events, e)
	c.counts[e.Kind]++
	c.obs.events[e.Kind].Inc()
	if e.Kind == EventResume && c.s.journal != nil {
		c.obs.journalReplays.Add(len(c.s.journal.Done))
	}
	c.tr.Event(e.Clock, e.Kind.String(), obs.F("observed", e.Observed), obs.F("detail", e.Detail))
}

// Run executes the solve and records its search telemetry. It reads only
// its own inputs and the controller's fixed or concurrency-safe parts, so
// it may run on any goroutine while the controller keeps observing.
func (sv *Solve) Run() {
	defer recoverInto(&sv.err, "solving", nil)
	c := sv.c
	dep := c.cfg.Deploy
	sink := c.solveSink(sv.kind, sv.clock)
	if sink != nil {
		dep.Progress = sink
	}
	var nodes, pruned, incumbents int
	var proven bool
	switch sv.kind {
	case solveRedesign:
		// The selection solves run under Common.Solve's limits and the
		// injector's deterministic node cap. Warm starts adopt the
		// incumbent's objects up front, so a cut solve still holds a design
		// never worse than the deployed one — degradation, not failure.
		common := c.common
		common.W = sv.w
		fb := c.cfg.FB
		if fb.Solve.IsZero() {
			fb.Solve = c.common.Solve
		}
		if cut := c.cfg.Faults.SolveInterrupt(); cut != nil {
			fb.Solve.Interrupt = cut
		}
		if sink != nil {
			fb.Solve.Progress = sink
		}
		des := designer.NewCORADDWith(common, c.model, c.cfg.Cand)
		des.Feedback = fb
		if sv.to, sv.err = des.DesignFrom(c.cfg.Budget, sv.from); sv.err != nil {
			return
		}
		d := sv.to
		sv.info = &RedesignInfo{Clock: sv.clock, Drift: sv.drift, Snapshot: sv.w, Solve: des.LastSolve,
			Design: d, Nodes: d.SolverNodes, Changed: !sameObjects(sv.from, d), Proven: d.SolverProven}
		nodes, proven = d.SolverNodes, d.SolverProven
		if s := des.LastSolve; s != nil && s.Sol != nil {
			pruned, incumbents = s.Sol.Pruned, s.Sol.IncumbentUpdates
		}
	case solveSchedule:
		sv.plan, sv.err = designer.PlanMigration(c.common.St, c.common.Disk, sv.w, c.model, sv.from, sv.to, dep)
		return
	case solveReplan:
		// The deployed prefix is the base state; build costs may shortcut
		// through kept objects, deployed builds or other remaining builds.
		if sv.sched, sv.err = sv.plan.RemainingSchedule(c.model, sv.w, sv.j, true, dep); sv.err != nil {
			return
		}
		nodes, pruned, incumbents, proven = sv.sched.Nodes, sv.sched.Pruned, sv.sched.Incumbents, sv.sched.Proven
	}
	c.obs.solverNodes.Add(nodes)
	c.obs.solverPruned.Add(pruned)
	c.obs.solverIncumbents.Add(incumbents)
	c.obs.solveNodes.Observe(float64(nodes))
	c.tr.Event(sv.clock, "solve", obs.F("solve", solveNames[sv.kind]), obs.F("nodes", nodes),
		obs.F("pruned", pruned), obs.F("incumbents", incumbents), obs.F("proven", proven))
}

// syncGauges mirrors the state's migration and solve into the gauges.
func (c *Controller) syncGauges() {
	var mig, left, solving int64
	if c.s.mig != nil {
		mig, left = 1, int64(len(c.s.journal.Next))
	}
	if c.s.solving {
		solving = 1
	}
	c.obs.migInFlight.Set(mig)
	c.obs.remainingBuilds.Set(left)
	c.obs.solveInFlight.Set(solving)
}

// measuredRate is w's measured workload rate per unit weight on the
// deployed state, measuring any template not yet priced there — the
// MigrationPrefix evaluation behind the replan check.
func (c *Controller) measuredRate(w query.Workload) (float64, error) {
	rate, wTotal := 0.0, 0.0
	for _, q := range w {
		sec, _, err := c.priceTemplate(q)
		if err != nil {
			return 0, err
		}
		wt := q.EffectiveWeight()
		rate += wt * sec
		wTotal += wt
	}
	return rate / wTotal, nil
}

// prefix routes the design a migration plan deploys after the done builds.
func (c *Controller) prefix(p *designer.MigrationPlan, w query.Workload, done []int) *designer.Design {
	return p.PrefixDesign(c.model, w, done)
}

// costOf builds the monitor's cost function for incumbent design d: cur
// is the model's routed estimate on d, lb the memoized estimate on the
// query's dedicated MV (candgen.DedicatedMV), clipped to cur so the ratio
// is ≥ 1 per template.
func (c *Controller) costOf(d *designer.Design) workload.CostFn {
	return func(q *query.Query) (cur, lb float64) {
		cur, _ = c.model.Estimate(d.Base, q)
		for _, md := range d.Chosen {
			if t, _ := c.model.Estimate(md, q); t < cur {
				cur = t
			}
		}
		key := workload.Fingerprint(q)
		lb, ok := c.lbCache[key]
		if !ok {
			lb = cur
			if md := candgen.DedicatedMV(c.common.St, q); md != nil {
				if t, _ := c.model.Estimate(md, q); t < lb {
					lb = t
				}
			}
			c.lbCache[key] = lb
		}
		return cur, min(lb, cur)
	}
}
