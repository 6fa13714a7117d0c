package tenant

import (
	"coradd/internal/obs"
)

// coordObs bundles the coordinator's metric handles. Built from
// Config.Metrics; with a nil registry every handle is nil and every
// update is a no-op, so an uninstrumented coordinator takes the exact
// code paths of an instrumented one — the same discipline as
// internal/adapt's ctlObs, and what keeps the pre-existing experiment
// tables byte-identical while this subsystem sits unused.
type coordObs struct {
	redesigns   *obs.Counter
	dualIters   *obs.Counter
	subSolves   *obs.Counter
	monolithic  *obs.Counter
	minedCands  *obs.Counter
	solverNodes *obs.Counter

	tenants *obs.Gauge

	// routed attributes each tenant's templates to the design object the
	// latest redesign routed them to (plan attribution, per tenant);
	// solveGap tracks the most recent dual decomposition's duality gap.
	routed   *obs.CounterVec
	solveGap *obs.FloatGauge
}

func newCoordObs(r *obs.Registry) coordObs {
	return coordObs{
		redesigns:   r.Counter("coradd_tenant_redesigns_total", "Multi-tenant redesign rounds completed."),
		dualIters:   r.Counter("coradd_tenant_dual_iterations_total", "Lagrangian dual ascent iterations (λ probes) across redesigns."),
		subSolves:   r.Counter("coradd_tenant_subproblem_solves_total", "Per-tenant penalized ILP solves across dual probes."),
		monolithic:  r.Counter("coradd_tenant_monolithic_solves_total", "Redesigns that took the pooled exact-solve fallback."),
		minedCands:  r.Counter("coradd_tenant_mined_candidates_total", "Candidates mined from tenant template tables, summed over redesigns."),
		solverNodes: r.Counter("coradd_tenant_solver_nodes_total", "Branch-and-bound nodes across all selection solves (dual subproblems or pooled fallback)."),

		tenants: r.Gauge("coradd_tenant_tenants", "Registered tenants."),

		routed:   r.CounterVec("coradd_tenant_object_routed_total", "Templates routed to a design object at a redesign round, by tenant and object.", "tenant", "object"),
		solveGap: r.FloatGauge("coradd_tenant_solve_gap", "Duality gap of the most recent Lagrangian decomposition round."),
	}
}
