package adapt

import (
	"fmt"
	"math"
	"slices"

	"coradd/internal/deploy"
	"coradd/internal/designer"
	"coradd/internal/query"
	"coradd/internal/workload"
)

// Every decision the controller makes is one transition function over its
// state: step applies an event and returns the commands it issues. It
// measures nothing, runs no solver, draws no fault and writes no trace or
// metric; the executor (adapt.go) runs the commands and feeds their
// completions back as events. Time enters only through observe: the
// state's clock, which is also the monitor's, advances by each stream
// query's priced seconds.

// Events: stream query q priced at x seconds; a price command's measured
// rate x per unit weight of w, for the build that landed at at; a solve's
// completion; the head build's attempt landing or failing at at; a crash.
type evKind int

const (
	evObserve evKind = iota
	evPriced
	evSolved
	evBuilt
	evBuildFailed
	evCrash
)

type event struct {
	kind  evKind
	q     *query.Query
	x, at float64
	w     query.Workload
	solve *Solve
}

// Commands: publish ev to the event log; price w on the deployed design
// (completion: evPriced); start an attempt of build name, seconds long, at
// at — after failure number retry and its backoff when retry > 0
// (completion: evBuilt or evBuildFailed); run solve (completion:
// evSolved). At most one build and one solve are in flight, and a solve is
// always the last command of a batch.
type cmdKind int

const (
	cmdPublish cmdKind = iota
	cmdPrice
	cmdBuild
	cmdSolve
)

type command struct {
	kind        cmdKind
	ev          Event
	w           query.Workload
	at, seconds float64
	name        string
	retry       int
	solve       *Solve
}

// kindCheck logs a drift check, kept out of Report.Events; Detail is the report if it fired.
const kindCheck EventKind = -1

func publish(kind EventKind, format string, args ...any) command {
	return command{kind: cmdPublish, ev: Event{Kind: kind, Detail: fmt.Sprintf(format, args...)}}
}

type solveKind int

const (
	solveRedesign solveKind = iota
	solveSchedule
	solveReplan
)

var solveNames = [...]string{"redesign", "schedule", "replan"}

// A Solve is one solver run the controller issued and waits on: a
// redesign for snapshot w from the incumbent from (result to), the
// migration schedule from → to over w (result plan), or a replan of what
// journal j leaves of plan over w from the build landed at at (result
// sched). Run it on any goroutine, then hand it back to Land.
type Solve struct {
	kind     solveKind
	clock    float64 // the state's clock when issued
	w        query.Workload
	at       float64
	drift    workload.DriftReport
	from, to *designer.Design
	plan     *designer.MigrationPlan
	j        *deploy.Journal
	sched    *deploy.Schedule
	info     *RedesignInfo // a redesign's telemetry
	err      error
	c        *Controller
}

// model prices what step needs synchronously: the monitor's cost function
// for a design and the routed design a migration prefix deploys.
type model interface {
	costOf(d *designer.Design) workload.CostFn
	prefix(p *designer.MigrationPlan, w query.Workload, done []int) *designer.Design
}

// migration is an in-flight deployment beside its journal: the remaining
// steps' modeled build seconds and workload rates, aligned with the
// journal's Next, the query weight they were priced over, and the failed
// attempts per object name.
type migration struct {
	plan          *designer.MigrationPlan
	builds, rates []float64
	wTotal        float64
	attempts      map[string]int
}

// state is everything step decides over.
type state struct {
	cfg Config
	m   model
	mon *workload.Monitor

	clock     float64
	observed  int
	incumbent *designer.Design // current target design
	deployed  *designer.Design // what physically serves right now
	mig       *migration
	journal   *deploy.Journal // step record of the latest migration; mid-migration, its only one

	sinceCheck   int
	lastRedesign float64
	solving      bool
	crashed      bool
}

// newState starts a state serving d, its monitor rebased on d and primed
// with w, the mix d was designed for, when there is one.
func newState(cfg Config, m model, d *designer.Design, w query.Workload) *state {
	s := &state{cfg: cfg, m: m, incumbent: d, deployed: d}
	s.mon, _ = workload.New(cfg.Monitor, func() float64 { return s.clock }) // fails on a nil clock only
	s.mon.Rebase(m.costOf(d))
	if len(w) > 0 {
		s.mon.PrimeBaseline(w)
	}
	return s
}

// step applies one event and returns the commands it issues, in order.
func (s *state) step(ev event) []command {
	if s.crashed {
		return nil
	}
	var cmds []command
	switch ev.kind {
	case evObserve:
		s.mon.Observe(ev.q)
		s.clock += ev.x
		s.observed++
		s.sinceCheck++
	case evPriced:
		// Replan check: scale-free comparison of the measured per-weight
		// rate of the deployed prefix against the per-weight rate the
		// schedule assumed for the next step.
		modeled := s.mig.rates[0] / s.mig.wTotal
		if modeled > 0 && math.Abs(ev.x/modeled-1) > s.cfg.ReplanTolerance {
			return []command{s.replan(ev.w, ev.at)}
		}
		return s.head(ev.at, 0)
	case evSolved:
		cmds = s.solved(ev.solve)
	case evBuilt:
		cmds = s.built(ev.at)
	case evBuildFailed:
		cmds = s.failed(ev.at)
	case evCrash:
		s.crashed = true
		return nil
	}
	return s.check(cmds)
}

// check appends the drift check, run on its cadence whenever no migration
// and no solve is in flight, and the redesign it triggers.
func (s *state) check(cmds []command) []command {
	if s.mig != nil || s.solving || s.sinceCheck < s.cfg.CheckEvery {
		return cmds
	}
	s.sinceCheck = 0
	rep := s.mon.Drift()
	if !rep.Drifted || s.clock-s.lastRedesign < s.cfg.MinGap {
		return append(cmds, publish(kindCheck, ""))
	}
	cmds = append(cmds, publish(kindCheck, "%s", rep))
	if w := s.mon.Snapshot(); len(w) > 0 {
		cmds = append(cmds, s.issue(&Solve{kind: solveRedesign, w: w, drift: rep, from: s.incumbent}))
	}
	return cmds
}

func (s *state) issue(sv *Solve) command {
	s.solving = true
	sv.clock = s.clock
	return command{kind: cmdSolve, solve: sv}
}

// replan re-solves the remaining schedule under snapshot w; the migration
// continues from at once it lands.
func (s *state) replan(w query.Workload, at float64) command {
	return s.issue(&Solve{kind: solveReplan, w: w, at: at, plan: s.mig.plan, j: s.journal.Clone()})
}

// head starts the next attempt of the migration's head build at start.
func (s *state) head(start float64, retry int) []command {
	return []command{{kind: cmdBuild, at: start, retry: retry,
		name: s.mig.plan.Builds[s.journal.Next[0]].Name, seconds: s.mig.builds[0]}}
}

// solved applies a solve's completion.
func (s *state) solved(sv *Solve) []command {
	s.solving = false
	if sv.err != nil {
		// A failed replan keeps the journaled order; anything else is
		// simply not adopted.
		if sv.kind == solveReplan {
			return s.head(sv.at, 0)
		}
		return nil
	}
	switch sv.kind {
	case solveRedesign:
		s.lastRedesign = sv.clock
		var cmds []command
		if !sv.to.SolverProven {
			cmds = append(cmds, publish(EventSolveDegraded,
				"redesign solve hit its deadline after %d nodes; adopting unproven warm-started incumbent", sv.to.SolverNodes))
		}
		if sameObjects(s.incumbent, sv.to) {
			// The recent mix still wants the incumbent: re-anchor drift
			// detection so the same signal does not re-trigger immediately.
			s.rebase(s.incumbent, sv.w)
			return append(cmds, publish(EventRedesign, "drift (%s) but redesign matches incumbent", sv.drift))
		}
		return append(cmds, s.issue(&Solve{kind: solveSchedule, w: sv.w, drift: sv.drift, from: s.incumbent, to: sv.to}))
	case solveSchedule:
		plan, to := sv.plan, sv.to
		s.incumbent = to
		s.rebase(to, sv.w)
		cmds := []command{publish(EventRedesign, "drift (%s) → redesign: %d kept, %d dropped, %d builds, %d solver nodes",
			sv.drift, len(plan.Kept), len(plan.Dropped), len(plan.Builds), to.SolverNodes)}
		// Drops are instantaneous and happen up front: the workload runs on
		// the kept prefix from now.
		s.deployed = s.m.prefix(plan, sv.w, nil)
		s.journal = plan.NewJournal(sv.from.Name)
		if len(plan.Builds) == 0 {
			return append(cmds, publish(EventMigrationDone, "migration to %s complete (drops only)", to.Name))
		}
		return append(cmds, s.start(plan, plan.Schedule, sv.w)...)
	default: // solveReplan
		sched := sv.sched
		s.journal.Next = sched.Order
		s.mig.builds, s.mig.rates, s.mig.wTotal = sched.Builds, sched.Rates, totalWeight(sv.w)
		return append([]command{publish(EventReplan, "replanned %d remaining builds (nodes %d, next %s)",
			len(sched.Order), sched.Nodes, s.mig.plan.Builds[sched.Order[0]].Name)}, s.head(sv.at, 0)...)
	}
}

// rebase re-anchors drift detection on design d, redesigned for snapshot
// w: the baseline is the mix d was solved for, not whatever the monitor
// observed while the solve ran.
func (s *state) rebase(d *designer.Design, w query.Workload) {
	s.mon.Rebase(s.m.costOf(d))
	s.mon.PrimeBaseline(w)
}

// start puts plan in flight — the one path for a fresh migration and a
// resumed one. sched is the remaining schedule, its order already the
// journal's Next, priced over w; the head build starts now.
func (s *state) start(plan *designer.MigrationPlan, sched *deploy.Schedule, w query.Workload) []command {
	s.mig = &migration{plan: plan, builds: sched.Builds, rates: sched.Rates, wTotal: totalWeight(w),
		attempts: make(map[string]int)}
	return s.head(s.clock, 0)
}

// pop removes the head build from the remaining schedule.
func (s *state) pop() (bi int, name string) {
	m, j := s.mig, s.journal
	bi = j.Next[0]
	j.Next, m.builds, m.rates = j.Next[1:], m.builds[1:], m.rates[1:]
	return bi, m.plan.Builds[bi].Name
}

// built deploys the head build, which landed at at: the new prefix serves
// from here, and the measured rate on it decides — unless replanning is
// off — whether the remaining schedule is re-solved.
func (s *state) built(at float64) []command {
	j := s.journal
	bi, name := s.pop()
	j.Done = append(j.Done, bi)
	w := s.mon.Snapshot()
	s.deployed = s.m.prefix(s.mig.plan, w, j.Done)
	cmds := []command{publish(EventBuild, "built %s (%d/%d)", name, len(j.Done), len(j.Done)+len(j.Next))}
	switch {
	case len(j.Next) == 0:
		return append(cmds, s.finish())
	case s.cfg.ReplanTolerance < 0 || len(w) == 0:
		return append(cmds, s.head(at, 0)...)
	}
	return append(cmds, command{kind: cmdPrice, w: w, at: at})
}

// failed handles a failure of the head build's attempt at at: the attempt
// is retried after backoff until the build exhausts Config.Retry, which
// skips it and re-solves the rest.
func (s *state) failed(at float64) []command {
	m, j := s.mig, s.journal
	name := m.plan.Builds[j.Next[0]].Name
	if m.attempts[name]++; m.attempts[name] <= s.cfg.Retry.Retries {
		return s.head(at, m.attempts[name])
	}
	bi, _ := s.pop()
	j.Skipped = append(j.Skipped, bi)
	cmds := []command{publish(EventBuildSkipped, "build %s failed %d times; skipped, %d builds remain",
		name, m.attempts[name], len(j.Next))}
	if len(j.Next) == 0 {
		return append(cmds, s.finish())
	}
	if w := s.mon.Snapshot(); len(w) > 0 {
		return append(cmds, s.replan(w, at))
	}
	return append(cmds, s.head(at, 0)...)
}

// finish closes out the migration. One that skipped builds lands short of
// its target: the deployed prefix — not the unreachable target — becomes
// the incumbent, and the drift baseline is rebased on it so a later
// redesign can retry the missing objects.
func (s *state) finish() command {
	plan := s.mig.plan
	s.mig = nil
	if skipped := len(s.journal.Skipped); skipped > 0 {
		s.incumbent = s.deployed
		s.mon.Rebase(s.m.costOf(s.deployed))
		return publish(EventMigrationDone, "migration to %s complete degraded: %d of %d builds skipped; incumbent is deployed prefix %s",
			plan.To.Name, skipped, len(plan.Builds), s.deployed.Name)
	}
	return publish(EventMigrationDone, "migration to %s complete", s.incumbent.Name)
}

// resume puts a restored state on design d. With journal j it serves j's
// prefix of plan and follows sched, j's remainder priced over w in the
// journaled order, so a restarted migration's step sequence matches the
// uninterrupted one.
func (s *state) resume(d *designer.Design, w query.Workload, j *deploy.Journal, plan *designer.MigrationPlan, sched *deploy.Schedule) []command {
	s.incumbent, s.deployed = d, d
	if j == nil {
		return nil
	}
	s.journal = j
	s.deployed = s.m.prefix(plan, w, j.Done)
	return append([]command{publish(EventResume, "resumed migration %s → %s from journal: %d built, %d remaining, %d skipped",
		j.From, j.To, len(j.Done), len(j.Next), len(j.Skipped))}, s.start(plan, sched, w)...)
}

// sameObjects reports whether two designs deploy the same object set.
func sameObjects(a, b *designer.Design) bool {
	keys := func(d *designer.Design) []string {
		out := make([]string, len(d.Chosen))
		for i, md := range d.Chosen {
			out[i] = md.Key()
		}
		slices.Sort(out)
		return out
	}
	return slices.Equal(keys(a), keys(b))
}

func totalWeight(w query.Workload) float64 {
	t := 0.0
	for _, q := range w {
		t += q.EffectiveWeight()
	}
	return t
}
