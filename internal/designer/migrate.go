package designer

import (
	"fmt"
	"sort"

	"coradd/internal/costmodel"
	"coradd/internal/deploy"
	"coradd/internal/query"
	"coradd/internal/stats"
	"coradd/internal/storage"
)

// MigrationStep is one build of a migration plan.
type MigrationStep struct {
	// Object is the design object this step constructs.
	Object *costmodel.MVDesign
	// BuildSeconds is the priced build time given the objects deployed
	// before this step; Source names the scanned build source — "fact",
	// a kept object surviving from the old design, or an earlier step's
	// object (the build-from-MV shortcut).
	BuildSeconds float64
	Source       string
	// RateSeconds is the model-expected workload cost per round while
	// this build runs; CumSeconds the running Σ build·rate through it.
	RateSeconds float64
	CumSeconds  float64
}

// MigrationPlan is an ordered deployment schedule migrating one design
// into another while the (new) workload keeps running: the order of
// builds minimizing cumulative workload cost over the deployment window
// (see internal/deploy).
type MigrationPlan struct {
	From, To *Design
	// Kept are objects present in both designs (deployed throughout);
	// Dropped are old objects absent from the target, removed up front
	// (their space must be free before the new builds start — drops are
	// modeled as instantaneous). Builds are the objects to construct,
	// aligned with Problem.Objects.
	Kept    []*costmodel.MVDesign
	Dropped []*costmodel.MVDesign
	Builds  []*costmodel.MVDesign
	// Problem and Schedule are the underlying scheduling instance and its
	// solved order, for callers comparing alternative orders through
	// deploy.Evaluate. They, Steps and the totals below stay zero on a
	// plan rebuilt by ResumeMigration.
	Problem  *deploy.Problem
	Schedule *deploy.Schedule
	// Steps is the scheduled order with its cost accounting.
	Steps []MigrationStep
	// CumSeconds is the schedule's cumulative workload cost over the
	// window (workload-seconds); StartRate/FinalRate the model-expected
	// workload cost per round before and after the migration.
	CumSeconds           float64
	StartRate, FinalRate float64
	// Nodes/Proven are the scheduler's search telemetry.
	Nodes  int
	Proven bool

	baseSrc []string // per-build source name realizing the base build cost
	st      *stats.Stats
	disk    storage.DiskParams
}

// PlanMigration schedules the builds that turn design from into design to
// while workload w (the new phase's workload) keeps running, minimizing
// the cumulative workload cost of the deployment window. Build costs are
// priced with costmodel.BuildSeconds — including build-from-MV shortcuts
// through kept objects and through earlier scheduled builds — and
// intermediate rates with the given cost model. from may be nil for a
// fresh deployment. Both designs must be over the same fact relation.
func PlanMigration(st *stats.Stats, disk storage.DiskParams, w query.Workload,
	model costmodel.Model, from, to *Design, opts deploy.Options) (*MigrationPlan, error) {

	if to == nil || to.Base == nil {
		return nil, fmt.Errorf("designer: migration target design is required")
	}
	mp := &MigrationPlan{From: from, To: to, st: st, disk: disk}

	// Split the target into kept (already deployed) and to-build, and the
	// old design into kept and dropped, matching by structural identity.
	oldKeys := map[string]bool{}
	if from != nil {
		for _, md := range from.Chosen {
			oldKeys[md.Key()] = true
		}
	}
	newKeys := map[string]bool{}
	for _, md := range to.Chosen {
		newKeys[md.Key()] = true
		if oldKeys[md.Key()] {
			mp.Kept = append(mp.Kept, md)
		} else {
			mp.Builds = append(mp.Builds, md)
		}
	}
	if from != nil {
		for _, md := range from.Chosen {
			if !newKeys[md.Key()] {
				mp.Dropped = append(mp.Dropped, md)
			}
		}
	}
	mp.Problem, mp.baseSrc = mp.buildProblem(w, model, mp.Kept, mp.Builds)

	sched, err := deploy.Solve(mp.Problem, opts)
	if err != nil {
		return nil, err
	}
	mp.Schedule = sched
	mp.CumSeconds = sched.Cum
	mp.StartRate = mp.Problem.Rate(nil)
	mp.FinalRate = sched.FinalRate
	mp.Nodes = sched.Nodes
	mp.Proven = sched.Proven
	mp.Steps = mp.StepsFor(sched)
	return mp, nil
}

// buildProblem is the one constructor of the plan's scheduling instances:
// it orders builds on top of the target's base plus the avail objects.
// The base times are each query's best over that available state; each
// build becomes one deploy object whose base build cost is its cheapest
// available source, with shortcuts through the other builds (Src is the
// position in builds). PlanMigration prices the whole plan through it
// (avail = Kept) and RemainingSchedule what a journal leaves of it
// (avail = Kept then the done builds), so both price bit-identically.
// The second result names, per build, the source realizing its base build
// cost: "fact" or an available object.
func (mp *MigrationPlan) buildProblem(w query.Workload, model costmodel.Model,
	avail, builds []*costmodel.MVDesign) (*deploy.Problem, []string) {

	nQ := len(w)
	base := make([]float64, nQ)
	weights := make([]float64, nQ)
	for qi, q := range w {
		t, _ := model.Estimate(mp.To.Base, q)
		for _, md := range avail {
			if tk, _ := model.Estimate(md, q); tk < t {
				t = tk
			}
		}
		base[qi] = t
		weights[qi] = q.EffectiveWeight()
	}

	prob := &deploy.Problem{Base: base, Weights: weights}
	baseSrc := make([]string, len(builds))
	for i, md := range builds {
		times := make([]float64, nQ)
		for qi, q := range w {
			times[qi], _ = model.Estimate(md, q)
		}
		build := costmodel.BuildSeconds(mp.st, mp.disk, md, nil)
		baseSrc[i] = "fact"
		for _, src := range avail {
			if costmodel.CanBuildFrom(md, src) {
				if c := costmodel.BuildSeconds(mp.st, mp.disk, md, src); c < build {
					build = c
					baseSrc[i] = src.Name
				}
			}
		}
		o := deploy.Object{Name: md.Name, Times: times, Build: build}
		for j, src := range builds {
			if j == i || !costmodel.CanBuildFrom(md, src) {
				continue
			}
			if c := costmodel.BuildSeconds(mp.st, mp.disk, md, src); c < build {
				o.From = append(o.From, deploy.Shortcut{Src: j, Cost: c})
			}
		}
		prob.Objects = append(prob.Objects, o)
	}
	return prob, baseSrc
}

// RemainingSchedule prices what is left of the plan's migration after the
// steps journal j records — the plan's own journal, from NewJournal or
// matched by ResumeMigration — over workload w: the target's base, the kept
// objects and j.Done's builds are available, and j.Next's builds are
// scheduled. With resolve the remainder's order is solved afresh under
// opts (a mid-migration replan); without, j.Next is priced in its
// journaled order (a resume, so a restarted controller follows the order
// the crashed one had committed to). Skipped builds are neither available
// nor scheduled. The schedule's Order and Sources index mp.Builds; its
// Builds/Rates are the remaining steps' modeled build seconds and
// workload rates.
func (mp *MigrationPlan) RemainingSchedule(model costmodel.Model, w query.Workload,
	j *deploy.Journal, resolve bool, opts deploy.Options) (*deploy.Schedule, error) {

	avail := append([]*costmodel.MVDesign(nil), mp.Kept...)
	for _, bi := range j.Done {
		avail = append(avail, mp.Builds[bi])
	}
	builds := make([]*costmodel.MVDesign, len(j.Next))
	order := make([]int, len(j.Next))
	for k, bi := range j.Next {
		builds[k] = mp.Builds[bi]
		order[k] = k
	}
	prob, _ := mp.buildProblem(w, model, avail, builds)
	var sched *deploy.Schedule
	var err error
	if resolve {
		sched, err = deploy.Solve(prob, opts)
	} else {
		sched, err = deploy.Evaluate(prob, order)
	}
	if err != nil {
		return nil, err
	}
	for k, ri := range sched.Order {
		sched.Order[k] = j.Next[ri]
		if src := sched.Sources[k]; src >= 0 {
			sched.Sources[k] = j.Next[src]
		}
	}
	return sched, nil
}

// ResumeMigration rebuilds a journaled migration's plan: to is the
// migration's target design (in a real deployment, reloaded from the
// durable design catalog), and the journal's kept/build keys are matched
// into it by structural identity, so the plan's Builds are positioned as
// the journal's indexes expect. The rebuilt plan carries no schedule;
// RemainingSchedule prices what the journal leaves of it. The old
// design's dropped objects are gone by the time a migration is in flight,
// so the plan's From/Dropped are not reconstructed.
func ResumeMigration(st *stats.Stats, disk storage.DiskParams, to *Design, j *deploy.Journal) (*MigrationPlan, error) {
	if to == nil || to.Base == nil {
		return nil, fmt.Errorf("designer: resume target design is required")
	}
	if j == nil {
		return nil, fmt.Errorf("designer: a journal is required to resume")
	}
	if err := j.Validate(); err != nil {
		return nil, err
	}
	byKey := make(map[string]*costmodel.MVDesign, len(to.Chosen))
	for _, md := range to.Chosen {
		byKey[md.Key()] = md
	}
	mp := &MigrationPlan{To: to, st: st, disk: disk}
	for _, k := range j.Kept {
		md, ok := byKey[k]
		if !ok {
			return nil, fmt.Errorf("designer: journaled kept object %q is not in target design %s", k, to.Name)
		}
		mp.Kept = append(mp.Kept, md)
	}
	for _, k := range j.Builds {
		md, ok := byKey[k]
		if !ok {
			return nil, fmt.Errorf("designer: journaled build %q is not in target design %s", k, to.Name)
		}
		mp.Builds = append(mp.Builds, md)
	}
	if got, want := len(mp.Kept)+len(mp.Builds), len(to.Chosen); got != want {
		return nil, fmt.Errorf("designer: journal covers %d of target design's %d objects", got, want)
	}
	return mp, nil
}

// NewJournal snapshots a freshly planned migration as a journal: nothing
// built yet, the solved order pending. fromName labels the old design
// ("" for a fresh deployment).
func (mp *MigrationPlan) NewJournal(fromName string) *deploy.Journal {
	j := &deploy.Journal{From: fromName, To: mp.To.Name}
	for _, md := range mp.Kept {
		j.Kept = append(j.Kept, md.Key())
	}
	for _, md := range mp.Dropped {
		j.Dropped = append(j.Dropped, md.Key())
	}
	for _, md := range mp.Builds {
		j.Builds = append(j.Builds, md.Key())
	}
	if mp.Schedule != nil {
		j.Next = append(j.Next, mp.Schedule.Order...)
	}
	return j
}

// SizeAscendingOrder returns the naive comparator order a DBA would
// reach for — builds sorted by charged size ascending, ties kept in
// selection order — the one definition shared by the deploy ablation and
// the examples.
func (mp *MigrationPlan) SizeAscendingOrder() []int {
	order := make([]int, len(mp.Builds))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool {
		return mp.Builds[order[a]].Bytes(mp.st) < mp.Builds[order[b]].Bytes(mp.st)
	})
	return order
}

// StepsFor renders any schedule over the plan's problem (the solved one,
// or a naive comparator priced with deploy.Evaluate) as migration steps.
func (mp *MigrationPlan) StepsFor(s *deploy.Schedule) []MigrationStep {
	steps := make([]MigrationStep, len(s.Order))
	cum := 0.0
	for k, oi := range s.Order {
		cum += s.Builds[k] * s.Rates[k]
		src := mp.baseSrc[oi]
		if s.Sources[k] >= 0 {
			src = mp.Builds[s.Sources[k]].Name
		}
		steps[k] = MigrationStep{
			Object:       mp.Builds[oi],
			BuildSeconds: s.Builds[k],
			Source:       src,
			RateSeconds:  s.Rates[k],
			CumSeconds:   cum,
		}
	}
	return steps
}

// PrefixDesign assembles the intermediate design deployed after the given
// builds (indexes into Builds): the kept objects plus those builds,
// routed by the model — what the workload actually runs on mid-migration.
// Measuring these through an Evaluator (whose ObjectCache shares physical
// structures across prefixes) yields the measured cumulative-cost curve
// of a schedule.
func (mp *MigrationPlan) PrefixDesign(model costmodel.Model, w query.Workload, deployed []int) *Design {
	d := &Design{
		Name:   fmt.Sprintf("%s+%d", mp.To.Name, len(deployed)),
		Style:  mp.To.Style,
		Budget: mp.To.Budget,
		Base:   mp.To.Base,
	}
	d.Chosen = append(d.Chosen, mp.Kept...)
	for _, bi := range deployed {
		d.Chosen = append(d.Chosen, mp.Builds[bi])
	}
	routeDesign(d, model, w)
	for _, md := range d.Chosen {
		d.Size += md.Bytes(mp.st)
	}
	return d
}
