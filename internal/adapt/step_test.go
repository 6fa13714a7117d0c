package adapt

import (
	"fmt"
	"slices"
	"testing"

	"coradd/internal/costmodel"
	"coradd/internal/deploy"
	"coradd/internal/designer"
	"coradd/internal/fault"
	"coradd/internal/query"
	"coradd/internal/storage"
	"coradd/internal/workload"
)

// The transition function under a fake executor: no data, no solver. The
// world answers every command deterministically from its inputs — a
// redesign alternates between the initial design and a target three
// builds away, a replan reverses the remaining order, a price diverges
// from the schedule after an odd number of builds — and checks the
// invariants after every event.

// fakeModel prices nothing: constant template costs, unrouted prefixes.
type fakeModel struct{}

func (fakeModel) costOf(*designer.Design) workload.CostFn {
	return func(*query.Query) (float64, float64) { return 1, 1 }
}

func (fakeModel) prefix(p *designer.MigrationPlan, _ query.Workload, done []int) *designer.Design {
	d := &designer.Design{Name: fmt.Sprintf("%s+%d", p.To.Name, len(done)), Base: p.To.Base}
	d.Chosen = append(d.Chosen, p.Kept...)
	for _, bi := range done {
		d.Chosen = append(d.Chosen, p.Builds[bi])
	}
	return d
}

func fakeObject(i int) *costmodel.MVDesign {
	return &costmodel.MVDesign{Name: fmt.Sprintf("mv%d", i), Cols: []int{i}, ClusterKey: []int{i}}
}

var (
	fakeBase    = fakeObject(9)
	fakeInitial = &designer.Design{Name: "D0", Base: fakeBase, Chosen: []*costmodel.MVDesign{fakeObject(0)}}
	fakeTarget  = &designer.Design{Name: "T", Base: fakeBase, Chosen: []*costmodel.MVDesign{
		fakeObject(0), fakeObject(1), fakeObject(2), fakeObject(3)}}
	// fakeStream rotates three templates, so the mix keeps drifting.
	fakeStream = []*query.Query{
		{Name: "A", Fact: "f", Targets: []string{"a"}},
		{Name: "B", Fact: "f", Targets: []string{"b"}},
		{Name: "C", Fact: "f", Targets: []string{"c"}},
	}
)

// fakeSchedule prices order with unit build seconds and rates.
func fakeSchedule(order []int) *deploy.Schedule {
	ones := make([]float64, len(order))
	for i := range ones {
		ones[i] = 1
	}
	return &deploy.Schedule{Order: order, Builds: ones, Rates: slices.Clone(ones)}
}

// Event alphabet of the enumeration.
const (
	doObserve = iota
	doSolved
	doBuilt
	doFailed
	doCrash
	nDo
)

type world struct {
	t     testing.TB
	cfg   Config
	s     *state
	build *command       // attempt in flight
	solve *Solve         // solve in flight
	built map[string]int // completions per object in the current migration
}

func newWorld(t testing.TB) *world {
	cfg := Config{
		Budget:     1,
		CheckEvery: 1,
		Monitor:    workload.Config{HalfLife: 1e9, MinObserved: 1, DistThreshold: 0.2},
		Retry:      fakeRetry(),
	}
	cfg.fill()
	s := newState(cfg, fakeModel{}, fakeInitial, query.Workload{{Name: "Z", Fact: "f", Targets: []string{"z"}}})
	w := &world{t: t, cfg: cfg, s: s, built: map[string]int{}}
	// Drift, redesign and schedule land the initial design in a 3-build
	// migration: the state every enumerated sequence starts from.
	w.do(doObserve)
	for w.solve != nil {
		w.do(doSolved)
	}
	if s.mig == nil || len(s.journal.Next) != 3 {
		t.Fatalf("setup did not start a 3-build migration: %+v", s.journal)
	}
	return w
}

func (w *world) applicable() []int {
	out := []int{doObserve, doCrash}
	if w.solve != nil {
		out = append(out, doSolved)
	}
	if w.build != nil {
		out = append(out, doBuilt, doFailed)
	}
	return out
}

// do delivers one event and checks the invariants.
func (w *world) do(e int) {
	s := w.s
	switch e {
	case doObserve:
		w.apply(s.step(event{kind: evObserve, q: fakeStream[s.observed%len(fakeStream)], x: 0.5}))
	case doSolved:
		sv := w.solve
		w.solve = nil
		w.answer(sv)
		w.apply(s.step(event{kind: evSolved, solve: sv}))
	case doBuilt, doFailed:
		b := w.build
		w.build = nil
		kind := evBuildFailed
		if e == doBuilt {
			kind = evBuilt
			if w.built[b.name]++; w.built[b.name] > 1 {
				w.t.Fatalf("build %s completed twice", b.name)
			}
		}
		w.apply(s.step(event{kind: kind, at: b.at + b.seconds}))
	case doCrash:
		w.crash()
	}
	w.check()
}

// answer fills in a solve's result as the fake executor.
func (w *world) answer(sv *Solve) {
	switch sv.kind {
	case solveRedesign:
		sv.to = fakeTarget
		if sameObjects(sv.from, fakeTarget) {
			sv.to = fakeInitial
		}
	case solveSchedule:
		p := &designer.MigrationPlan{From: sv.from, To: sv.to}
		for _, md := range sv.to.Chosen {
			if slices.ContainsFunc(sv.from.Chosen, func(o *costmodel.MVDesign) bool { return o.Key() == md.Key() }) {
				p.Kept = append(p.Kept, md)
			} else {
				p.Builds = append(p.Builds, md)
			}
		}
		order := make([]int, len(p.Builds))
		for i := range order {
			order[i] = i
		}
		p.Schedule = fakeSchedule(order)
		sv.plan = p
		w.built = map[string]int{} // a new migration
	case solveReplan:
		next := slices.Clone(sv.j.Next)
		slices.Reverse(next)
		sv.sched = fakeSchedule(next)
	}
}

// apply runs a batch of commands: prices answer at once, a build or a
// solve goes in flight.
func (w *world) apply(cmds []command) {
	for len(cmds) > 0 {
		c := cmds[0]
		cmds = cmds[1:]
		switch c.kind {
		case cmdPrice:
			m := w.s.mig
			rate := m.rates[0] / m.wTotal * float64(1+len(w.s.journal.Done)%2)
			cmds = append(cmds, w.s.step(event{kind: evPriced, x: rate, w: c.w, at: c.at})...)
		case cmdBuild:
			if w.build != nil {
				w.t.Fatalf("build %s started with %s in flight", c.name, w.build.name)
			}
			w.build = &c
		case cmdSolve:
			if w.solve != nil {
				w.t.Fatal("a second solve issued with one in flight")
			}
			if len(cmds) > 0 {
				w.t.Fatal("a solve is not the last command of its batch")
			}
			w.solve = c.solve
		}
	}
}

// crash kills the state, captures it with save and restores it the way
// Restore does; the restored migration must continue exactly where the
// crashed one stood.
func (w *world) crash() {
	pre := w.s
	var preJournal *deploy.Journal
	if pre.mig != nil {
		preJournal = pre.journal.Clone()
	}
	pre.step(event{kind: evCrash})
	st := pre.save()
	s := newState(w.cfg, fakeModel{}, st.Design, st.Workload)
	var plan *designer.MigrationPlan
	var sched *deploy.Schedule
	if st.Journal != nil {
		var err error
		if plan, err = designer.ResumeMigration(nil, storage.DiskParams{}, st.Design, st.Journal); err != nil {
			w.t.Fatal(err)
		}
		sched = fakeSchedule(slices.Clone(st.Journal.Next))
	}
	w.s, w.build, w.solve = s, nil, nil
	w.apply(s.resume(st.Design, st.Workload, st.Journal, plan, sched))
	if (preJournal == nil) != (s.mig == nil) {
		w.t.Fatalf("crashed migrating=%v, restored migrating=%v", preJournal != nil, s.mig != nil)
	}
	if preJournal == nil {
		return
	}
	j := s.journal
	if !slices.Equal(j.Done, preJournal.Done) || !slices.Equal(j.Next, preJournal.Next) ||
		!slices.Equal(j.Skipped, preJournal.Skipped) {
		w.t.Fatalf("restored journal done=%v next=%v skipped=%v, crashed at done=%v next=%v skipped=%v",
			j.Done, j.Next, j.Skipped, preJournal.Done, preJournal.Next, preJournal.Skipped)
	}
	if !sameObjects(s.deployed, pre.deployed) || !sameObjects(s.incumbent, pre.incumbent) {
		w.t.Fatalf("restored on %s → %s, crashed on %s → %s",
			s.deployed.Name, s.incumbent.Name, pre.deployed.Name, pre.incumbent.Name)
	}
}

// check asserts the invariants of the state between events.
func (w *world) check() {
	s := w.s
	if s.solving != (w.solve != nil) {
		w.t.Fatalf("state solving=%v with %v in flight", s.solving, w.solve != nil)
	}
	if s.mig == nil {
		if w.build != nil {
			w.t.Fatalf("build %s in flight with no migration", w.build.name)
		}
		return
	}
	// A migration always has its head attempt scheduled, or a solve that
	// will schedule it: nothing wedges.
	if (w.build == nil) == (w.solve == nil) {
		w.t.Fatalf("migration with build in flight %v and solve in flight %v", w.build != nil, w.solve != nil)
	}
	j, m := s.journal, s.mig
	if len(m.builds) != len(j.Next) || len(m.rates) != len(j.Next) {
		w.t.Fatalf("remaining schedule of %d/%d steps for %d journaled", len(m.builds), len(m.rates), len(j.Next))
	}
	seen := make([]int, len(m.plan.Builds))
	for _, part := range [][]int{j.Done, j.Next, j.Skipped} {
		for _, bi := range part {
			if bi < 0 || bi >= len(seen) {
				w.t.Fatalf("journal index %d outside %d builds", bi, len(seen))
			}
			seen[bi]++
		}
	}
	for bi, n := range seen {
		if n != 1 {
			w.t.Fatalf("build %d appears %d times across done=%v next=%v skipped=%v", bi, n, j.Done, j.Next, j.Skipped)
		}
	}
}

// terminates drives the world with completions only — every attempt
// failing, or every attempt succeeding — and requires the migration and
// any solve to run out.
func (w *world) terminates(failing bool) {
	for i := 0; i < 64 && (w.s.mig != nil || w.solve != nil); i++ {
		switch {
		case w.solve != nil:
			w.do(doSolved)
		case failing:
			w.do(doFailed)
		default:
			w.do(doBuilt)
		}
	}
	if w.s.mig != nil || w.solve != nil {
		w.t.Fatalf("migration did not terminate (failing=%v): journal %+v", failing, w.s.journal)
	}
}

func replay(t testing.TB, seq []int) *world {
	w := newWorld(t)
	for _, e := range seq {
		w.do(e)
	}
	return w
}

// TestStepEnumeration enumerates every sequence of observe, solve-done,
// build-done, build-failed and crash→save→restore up to depth 6 from a
// 3-build migration, checking after every event that Done/Next/Skipped
// partition the builds, no build completes twice, at most one solve is in
// flight, a crash resumes the crashed migration's remaining order, and —
// from every leaf — that the migration terminates.
func TestStepEnumeration(t *testing.T) {
	const depth = 7
	leaves := 0
	var walk func(seq []int)
	walk = func(seq []int) {
		w := replay(t, seq)
		if len(seq) == depth {
			leaves++
			w.terminates(leaves%2 == 0)
			return
		}
		for _, e := range w.applicable() {
			walk(append(slices.Clone(seq), e))
		}
	}
	walk(nil)
	t.Logf("%d sequences of %d events", leaves, depth)
}

// FuzzStep decodes bytes into a sequence of up to 64 events over the same
// fake executor and invariants as TestStepEnumeration.
func FuzzStep(f *testing.F) {
	f.Add([]byte{2, 2, 2, 2})
	f.Add([]byte{3, 3, 3, 1, 4, 1, 2})
	f.Add([]byte{0, 4, 2, 0, 3, 1, 4, 3, 3, 2})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 64 {
			data = data[:64]
		}
		w := newWorld(t)
		for _, b := range data {
			evs := w.applicable()
			w.do(evs[int(b)%len(evs)])
		}
		w.terminates(len(data)%2 == 1)
	})
}

func fakeRetry() (p fault.RetryPolicy) {
	p.Retries = 1
	return p.Fill()
}
