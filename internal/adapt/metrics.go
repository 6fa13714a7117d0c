package adapt

import (
	"coradd/internal/obs"
)

// ctlObs bundles the controller's metric handles, built from
// Config.Metrics. With a nil registry every handle is nil and every update
// a no-op, so instrumented and uninstrumented runs take the same paths.
type ctlObs struct {
	// events counts the event log's controller events by kind.
	events        [nEventKinds]*obs.Counter
	observations  *obs.Counter
	driftChecks   *obs.Counter
	driftTriggers *obs.Counter

	// Solver telemetry, summed over redesign selection solves and
	// replan scheduling solves (the per-solve shape goes to the tracer).
	solverNodes      *obs.Counter
	solverPruned     *obs.Counter
	solverIncumbents *obs.Counter
	// journalReplays counts builds Restore adopted instead of rebuilding.
	journalReplays *obs.Counter

	// Per-solve node counts (decades 1..10M) and per-step simulated build
	// seconds, injected delays included.
	solveNodes   *obs.Histogram
	buildSeconds *obs.Histogram

	migInFlight     *obs.Gauge
	remainingBuilds *obs.Gauge
	solveInFlight   *obs.Gauge

	// Plan attribution (internal/exec): serves and measured seconds by
	// design object, and the calibration error of each template pricing.
	objServes  *obs.CounterVec
	objSeconds *obs.FloatCounterVec
	calibErr   *obs.Histogram
	// solveGap tracks the most recent solve's incumbent-vs-root-bound
	// optimality gap, fed by the progress sink (ilp.ProgressSample).
	solveGap *obs.FloatGauge
}

func newCtlObs(r *obs.Registry) ctlObs {
	return ctlObs{
		events: [nEventKinds]*obs.Counter{
			EventRedesign:      r.Counter("coradd_adapt_redesigns_total", "Drift-triggered redesigns (including no-change outcomes)."),
			EventBuild:         r.Counter("coradd_adapt_builds_total", "Completed migration builds."),
			EventReplan:        r.Counter("coradd_adapt_replans_total", "Mid-migration re-solves of the remaining schedule."),
			EventMigrationDone: r.Counter("coradd_adapt_migrations_total", "Migrations fully deployed (degraded and drops-only completions included)."),
			EventBuildFailed:   r.Counter("coradd_adapt_build_retries_total", "Build failures scheduled for retry after backoff."),
			EventBuildSkipped:  r.Counter("coradd_adapt_builds_skipped_total", "Builds abandoned after exhausting their retries."),
			EventSolveDegraded: r.Counter("coradd_adapt_solves_degraded_total", "Redesigns adopted unproven after a solve deadline."),
			EventResume:        r.Counter("coradd_adapt_resumes_total", "Controllers rebuilt from a journal or checkpoint."),
		},
		observations:  r.Counter("coradd_adapt_observations_total", "Stream queries processed by the adaptive controller."),
		driftChecks:   r.Counter("coradd_adapt_drift_checks_total", "Drift checks run on the controller's cadence."),
		driftTriggers: r.Counter("coradd_adapt_drift_triggers_total", "Drift checks that reported drift and passed the redesign gap."),

		solverNodes:      r.Counter("coradd_adapt_solver_nodes_total", "Branch-and-bound nodes across redesign and replan solves."),
		solverPruned:     r.Counter("coradd_adapt_solver_pruned_total", "Bound-pruned nodes across redesign and replan solves."),
		solverIncumbents: r.Counter("coradd_adapt_solver_incumbent_updates_total", "Incumbent improvements across redesign and replan solves."),
		journalReplays:   r.Counter("coradd_adapt_journal_replayed_builds_total", "Builds adopted from a migration journal on resume."),

		solveNodes:   r.HistogramRange("coradd_adapt_solve_nodes", "Per-solve branch-and-bound node counts.", 0, 7),
		buildSeconds: r.Histogram("coradd_adapt_build_seconds", "Per-step migration build seconds on the simulated timeline."),

		migInFlight:     r.Gauge("coradd_adapt_migration_in_flight", "1 while a migration is deploying, else 0."),
		remainingBuilds: r.Gauge("coradd_adapt_remaining_builds", "Builds left in the in-flight migration."),
		solveInFlight:   r.Gauge("coradd_adapt_solve_in_flight", "1 while a redesign, scheduling or replan solve has not landed, else 0."),

		objServes:  r.CounterVec("coradd_object_serves_total", "Queries served, by the design object that served them.", "object"),
		objSeconds: r.FloatCounterVec("coradd_object_measured_seconds", "Accumulated measured simulated seconds, by serving design object.", "object"),
		calibErr:   r.Histogram("coradd_adapt_calibration_error", "Absolute relative modeled-vs-measured error per template pricing."),
		solveGap:   r.FloatGauge("coradd_solve_gap", "Incumbent-vs-root-bound gap of the most recent selection or scheduling solve."),
	}
}
