package adapt

import (
	"fmt"

	"coradd/internal/deploy"
	"coradd/internal/designer"
	"coradd/internal/durable"
	"coradd/internal/query"
	"coradd/internal/schema"
)

// State is everything a restarted controller needs that cannot be
// regenerated from the (deterministic, seeded) dataset: the active
// design, the in-flight migration journal and the monitor snapshot. Its
// JSON encoding is the body of a durable checkpoint; the same value
// restores a controller in process after an injected crash.
type State struct {
	// SavedClock/Observed locate the save point on the saving controller's
	// simulated timeline (informational; a restored timeline restarts at
	// zero).
	SavedClock float64 `json:"saved_clock"`
	Observed   int     `json:"observed"`
	// Design is the active design: the migration's target while one is in
	// flight, otherwise the deployed design. It is recorded without
	// routing, which Restore recomputes for the restored workload.
	Design *designer.Design `json:"design"`
	// Journal is the in-flight migration's step journal, nil when the
	// controller was idle.
	Journal *deploy.Journal `json:"journal,omitempty"`
	// Workload is the monitor snapshot: one representative query per
	// template, Weight = the decayed rate at save time.
	Workload query.Workload `json:"workload"`
}

// State captures the controller's restart state. Call it from the
// goroutine driving the controller (between its calls), never
// concurrently with it.
func (c *Controller) State() State { return c.s.save() }

// save captures the state's restart record. Mid-migration the record is
// the target the journaled build order leads to; idle, it is the design
// actually serving, whose identity (prefix names like "CORADD+3") a
// restart must resurface rather than its structurally equal target.
func (s *state) save() State {
	st := State{
		SavedClock: s.clock,
		Observed:   int(s.mon.Observed()),
		Design:     s.deployed,
		Workload:   s.mon.Snapshot(),
	}
	if s.mig != nil {
		st.Design = s.incumbent
		st.Journal = s.journal.Clone()
	}
	return st
}

// Restore rebuilds a controller from a State — captured in process after
// an injected crash, or decoded from the checkpoint a killed process left
// — over common's regenerated statistics, its W replaced by the state's
// monitor snapshot unless that is empty. With a journal, the controller
// serves the journaled prefix and follows the journaled remaining order,
// so an interrupted run's step sequence matches the uninterrupted run's;
// without one it restarts idle on the recorded design. Either way the
// monitor is primed from the snapshot and drift re-anchored on it — an
// empty table would read the first post-restart observations as drift —
// and the simulated clock restarts at zero. A state that is not a
// well-formed capture over common's fact relation (object specs are
// positional over its schema) fails with durable.ErrCorrupt.
func Restore(common designer.Common, st State, cfg Config) (*Controller, error) {
	if err := st.validate(common.St.Rel.Schema); err != nil {
		return nil, fmt.Errorf("%w: %v", durable.ErrCorrupt, err)
	}
	// A state saved before the first observation has an empty snapshot;
	// the controller then starts from common.W exactly as a cold start
	// on the recorded design would.
	primed := len(st.Workload) > 0
	if primed {
		common.W = st.Workload
	}
	c, err := New(common, st.Design, cfg)
	if err != nil {
		return nil, err
	}
	// The record carries no routing; route it for the restored workload
	// through the controller's own model.
	d := designer.Reroute(c.s.incumbent, c.model, common.W)
	if primed {
		c.Mon.PrimeRates(common.W)
		c.Mon.Rebase(c.costOf(d))
	}
	j := st.Journal
	if j == nil {
		c.s.resume(d, nil, nil, nil, nil)
		c.publish(Event{Kind: EventResume, Detail: fmt.Sprintf(
			"restarted idle on design %s: %d templates primed", d.Name, len(st.Workload))})
		return c, nil
	}
	plan, err := designer.ResumeMigration(common.St, common.Disk, d, j)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", durable.ErrCorrupt, err)
	}
	sched, err := plan.RemainingSchedule(c.model, common.W, j, false, deploy.Options{})
	if err != nil {
		return nil, fmt.Errorf("%w: %v", durable.ErrCorrupt, err)
	}
	if _, err := c.run(c.s.resume(d, common.W, j.Clone(), plan, sched)); err != nil {
		return nil, err
	}
	return c, nil
}

// validate checks that st is a capture State could have produced over a
// fact relation with schema sch: a design whose objects are present and
// name only existing columns, a snapshot of well-formed queries over sch,
// and a journal only with builds still to run.
func (st State) validate(sch *schema.Schema) error {
	nCols := len(sch.Columns)
	r := st.Design
	if r == nil || r.Base == nil {
		return fmt.Errorf("state carries no design")
	}
	if err := r.Base.Validate(nCols); err != nil {
		return fmt.Errorf("base design: %v", err)
	}
	for i, md := range r.Chosen {
		if md == nil {
			return fmt.Errorf("design object %d is null", i)
		}
		if err := md.Validate(nCols); err != nil {
			return fmt.Errorf("design object %d (%s): %v", i, md.Name, err)
		}
	}
	for i, q := range st.Workload {
		if q == nil {
			return fmt.Errorf("workload query %d is null", i)
		}
		if err := q.Validate(sch.Col); err != nil {
			return fmt.Errorf("workload query %d: %v", i, err)
		}
	}
	if st.Journal != nil && len(st.Journal.Next) == 0 {
		return fmt.Errorf("journal has no builds left; an idle state carries none")
	}
	return nil
}
