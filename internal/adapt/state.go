package adapt

import (
	"fmt"

	"coradd/internal/costmodel"
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
	// flight, otherwise the deployed design.
	Design *DesignRecord `json:"design"`
	// Journal is the in-flight migration's step journal, nil when the
	// controller was idle.
	Journal *deploy.Journal `json:"journal,omitempty"`
	// Workload is the monitor snapshot: one representative query per
	// template, Weight = the decayed rate at save time.
	Workload query.Workload `json:"workload"`
}

// DesignRecord is the serialized form of a designer.Design: the physical
// object specs (costmodel.MVDesign is pure data) without the
// workload-relative routing tables, which Restore recomputes for the
// restored workload.
type DesignRecord struct {
	Name         string                `json:"name"`
	Style        int                   `json:"style"`
	Budget       int64                 `json:"budget"`
	Size         int64                 `json:"size"`
	Chosen       []*costmodel.MVDesign `json:"chosen,omitempty"`
	Base         *costmodel.MVDesign   `json:"base"`
	SolverNodes  int                   `json:"solver_nodes,omitempty"`
	SolverProven bool                  `json:"solver_proven,omitempty"`
}

// State captures the controller's restart state. Call it from the
// goroutine driving the controller (between Process calls), never
// concurrently with it.
//
// Mid-migration the record is the TARGET, which the journaled build order
// leads to; idle, it is the design actually serving. The two are
// structurally equal when idle — a completed migration's full prefix is
// its target — but the deployed one carries the serving identity (prefix
// names like "CORADD+3"), and a restart must resurface the identity the
// controller reported before it died, not a lookalike under another name.
func (c *Controller) State() State {
	st := State{
		SavedClock: c.clock,
		Observed:   int(c.Mon.Observed()),
		Design:     recordDesign(c.deployed),
		Workload:   c.Mon.Snapshot(),
	}
	if c.mig != nil {
		st.Design = recordDesign(c.incumbent)
		st.Journal = c.journal.Clone()
	}
	return st
}

// recordDesign and design convert between a design and its record.
func recordDesign(d *designer.Design) *DesignRecord {
	return &DesignRecord{
		Name:         d.Name,
		Style:        int(d.Style),
		Budget:       d.Budget,
		Size:         d.Size,
		Chosen:       d.Chosen,
		Base:         d.Base,
		SolverNodes:  d.SolverNodes,
		SolverProven: d.SolverProven,
	}
}

func (r *DesignRecord) design() *designer.Design {
	return &designer.Design{
		Name:         r.Name,
		Style:        designer.Style(r.Style),
		Budget:       r.Budget,
		Size:         r.Size,
		Chosen:       r.Chosen,
		Base:         r.Base,
		SolverNodes:  r.SolverNodes,
		SolverProven: r.SolverProven,
	}
}

// Restore rebuilds a controller from a State — captured in process after
// an injected crash, or decoded from the checkpoint a killed process left.
// common supplies the regenerated statistics and tuning; its W is
// replaced by the state's monitor snapshot unless that is empty. The
// object specs are positional over the fact schema, so a state is only
// meaningful against the same (deterministically regenerated) relation
// it was captured on.
//
// With a journal, the restored controller serves from the journaled
// prefix design and follows the journaled remaining order rather than
// re-deciding it, so an interrupted run's step sequence matches the
// uninterrupted run's exactly. Without one it restarts idle on the
// recorded design. Either way the monitor is primed from the snapshot
// (whose weights are the old monitor's decayed rates) and drift is
// re-anchored on it: an empty table would converge to the first few
// post-restart observations and read as drift the old monitor never saw.
// The simulated clock restarts at zero.
//
// A state that is not a well-formed capture over common's fact relation
// is rejected with an error wrapping durable.ErrCorrupt.
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
	c, err := New(common, st.Design.design(), cfg)
	if err != nil {
		return nil, err
	}
	// The record carries no routing; route it for the restored workload
	// through the controller's own model.
	d := designer.Reroute(c.incumbent, c.model, common.W)
	c.incumbent, c.deployed = d, d
	if primed {
		c.Mon.PrimeRates(common.W)
		c.Mon.Rebase(c.costOf(d))
	}
	c.obs.resumes.Inc()
	j := st.Journal
	if j == nil {
		c.event(EventResume, "restarted idle on design %s: %d templates primed", d.Name, len(st.Workload))
		return c, nil
	}
	// Follow the journaled remainder as is: price Next in its order on top
	// of the journaled prefix.
	plan, err := designer.ResumeMigration(common.St, common.Disk, d, j)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", durable.ErrCorrupt, err)
	}
	sched, err := plan.RemainingSchedule(c.model, common.W, j, false, deploy.Options{})
	if err != nil {
		return nil, fmt.Errorf("%w: %v", durable.ErrCorrupt, err)
	}
	c.journal = j.Clone()
	c.deployed = plan.PrefixDesign(c.model, common.W, j.Done)
	c.obs.journalReplays.Add(len(j.Done))
	c.event(EventResume, "resumed migration %s → %s from journal: %d built, %d remaining, %d skipped",
		j.From, j.To, len(j.Done), len(j.Next), len(j.Skipped))
	c.startMigration(plan, sched, totalWeight(common.W))
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
	if err := checkObject(r.Base, nCols); err != nil {
		return fmt.Errorf("base design: %v", err)
	}
	for i, md := range r.Chosen {
		if md == nil {
			return fmt.Errorf("design object %d is null", i)
		}
		if err := checkObject(md, nCols); err != nil {
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

// checkObject requires md to be an object the designer could have
// recorded over an nCols-column fact: at least one column, columns
// strictly ascending inside the schema, a clustered key it carries, and
// every other position inside the schema.
func checkObject(md *costmodel.MVDesign, nCols int) error {
	if len(md.Cols) == 0 {
		return fmt.Errorf("carries no columns")
	}
	for i, p := range md.Cols {
		if p < 0 || p >= nCols {
			return fmt.Errorf("column position %d outside the %d-column fact schema", p, nCols)
		}
		if i > 0 && p <= md.Cols[i-1] {
			return fmt.Errorf("columns %v not strictly ascending", md.Cols)
		}
	}
	for _, p := range md.ClusterKey {
		if !md.HasCol(p) {
			return fmt.Errorf("clustered key column %d is not carried", p)
		}
	}
	for _, p := range md.PKCols {
		if p < 0 || p >= nCols {
			return fmt.Errorf("primary-key position %d outside the %d-column fact schema", p, nCols)
		}
	}
	for _, ci := range md.CorrIdxs {
		if ci.Target < 0 || ci.Target >= nCols {
			return fmt.Errorf("correlation index on column position %d outside the %d-column fact schema", ci.Target, nCols)
		}
	}
	return nil
}
