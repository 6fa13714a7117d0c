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
	candidates  *obs.Counter
	solverNodes *obs.Counter

	tenants *obs.Gauge

	// routed attributes each tenant's templates to the design object the
	// latest redesign routed them to (plan attribution, per tenant).
	routed *obs.CounterVec
}

func newCoordObs(r *obs.Registry) coordObs {
	return coordObs{
		redesigns:   r.Counter("coradd_tenant_redesigns_total", "Multi-tenant redesign rounds completed."),
		candidates:  r.Counter("coradd_tenant_candidates_total", "Candidates generated for tenant snapshots, summed over redesigns."),
		solverNodes: r.Counter("coradd_tenant_solver_nodes_total", "Branch-and-bound nodes of the pooled selection solves."),

		tenants: r.Gauge("coradd_tenant_tenants", "Registered tenants."),

		routed: r.CounterVec("coradd_tenant_object_routed_total", "Templates routed to a design object at a redesign round, by tenant and object.", "tenant", "object"),
	}
}
