package designer

import (
	"fmt"
	"math"
	"testing"

	"coradd/internal/deploy"
	"coradd/internal/feedback"
)

// migrationFixture designs the same workload at two budgets — the tight
// design plays the deployed phase-1 state, the large one the target.
func migrationFixture(t *testing.T) (Common, *CORADD, *Design, *Design) {
	t.Helper()
	rel, _, c := smallSSB(t, 40000)
	d := NewCORADD(c, smallCandCfg(), feedback.Config{MaxIters: 1})
	from, err := d.Design(rel.HeapBytes())
	if err != nil {
		t.Fatal(err)
	}
	to, err := d.Design(rel.HeapBytes() * 4)
	if err != nil {
		t.Fatal(err)
	}
	return c, d, from, to
}

func TestPlanMigrationPartitionsObjects(t *testing.T) {
	c, d, from, to := migrationFixture(t)
	plan, err := PlanMigration(c.St, c.Disk, c.W, d.Model, from, to, deploy.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Kept)+len(plan.Builds) != len(to.Chosen) {
		t.Errorf("kept %d + builds %d != target %d", len(plan.Kept), len(plan.Builds), len(to.Chosen))
	}
	if len(plan.Kept)+len(plan.Dropped) != len(from.Chosen) {
		t.Errorf("kept %d + dropped %d != source %d", len(plan.Kept), len(plan.Dropped), len(from.Chosen))
	}
	if len(plan.Steps) != len(plan.Builds) {
		t.Errorf("%d steps for %d builds", len(plan.Steps), len(plan.Builds))
	}
	if !plan.Proven {
		t.Error("small migration instance not proven optimal")
	}
	if plan.FinalRate > plan.StartRate {
		t.Errorf("final rate %.4f above start rate %.4f", plan.FinalRate, plan.StartRate)
	}
	// Step accounting must telescope to the plan total.
	if n := len(plan.Steps); n > 0 {
		if got := plan.Steps[n-1].CumSeconds; math.Abs(got-plan.CumSeconds) > 1e-9 {
			t.Errorf("last step cum %.6f != plan cum %.6f", got, plan.CumSeconds)
		}
	}
	for _, s := range plan.Steps {
		if s.BuildSeconds <= 0 {
			t.Errorf("step %s has non-positive build cost", s.Object.Name)
		}
		if s.Source == "" {
			t.Errorf("step %s has no build source", s.Object.Name)
		}
	}
}

func TestPlanMigrationFreshDeployment(t *testing.T) {
	c, d, _, to := migrationFixture(t)
	plan, err := PlanMigration(c.St, c.Disk, c.W, d.Model, nil, to, deploy.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Kept) != 0 || len(plan.Dropped) != 0 {
		t.Errorf("fresh deployment has kept %d dropped %d", len(plan.Kept), len(plan.Dropped))
	}
	if len(plan.Builds) != len(to.Chosen) {
		t.Errorf("fresh deployment schedules %d of %d objects", len(plan.Builds), len(to.Chosen))
	}
	// The scheduled order cannot cost more than the selection order under
	// the shared model.
	order := make([]int, len(plan.Builds))
	for i := range order {
		order[i] = i
	}
	arb, err := deploy.Evaluate(plan.Problem, order)
	if err != nil {
		t.Fatal(err)
	}
	if plan.CumSeconds > arb.Cum+1e-9 {
		t.Errorf("scheduled cum %.6f worse than selection order %.6f", plan.CumSeconds, arb.Cum)
	}
}

func TestPrefixDesignMeasurable(t *testing.T) {
	c, d, from, to := migrationFixture(t)
	plan, err := PlanMigration(c.St, c.Disk, c.W, d.Model, from, to, deploy.Options{})
	if err != nil {
		t.Fatal(err)
	}
	ev := NewEvaluator(c.St.Rel, c.W, c.Disk)
	var prevTotal float64
	for k := 0; k <= len(plan.Builds); k++ {
		pd := plan.PrefixDesign(d.Model, c.W, plan.Schedule.Order[:k])
		if len(pd.Chosen) != len(plan.Kept)+k {
			t.Fatalf("prefix %d carries %d objects, want %d", k, len(pd.Chosen), len(plan.Kept)+k)
		}
		r, err := ev.Measure(pd)
		if err != nil {
			t.Fatalf("prefix %d: %v", k, err)
		}
		if k > 0 && r.Total > prevTotal*1.05 {
			t.Errorf("prefix %d measured %.4fs, worse than prefix %d at %.4fs", k, r.Total, k-1, prevTotal)
		}
		prevTotal = r.Total
	}
}

// TestRemainingScheduleSlicesWholePlan: the remainder instance prices its
// steps bit for bit like the same span of the whole plan's instance —
// with the journal's done builds as available sources instead of earlier
// steps, and with skipped builds out of both — so a resume follows the
// numbers the uninterrupted migration had, and a replan before any build
// re-solves the plan's own schedule.
func TestRemainingScheduleSlicesWholePlan(t *testing.T) {
	c, d, from, to := migrationFixture(t)
	plan, err := PlanMigration(c.St, c.Disk, c.W, d.Model, from, to, deploy.Options{})
	if err != nil {
		t.Fatal(err)
	}
	order := plan.Schedule.Order
	if len(order) < 3 {
		t.Fatalf("fixture migration has %d builds, want at least 3", len(order))
	}
	sameSpan := func(label string, got, want *deploy.Schedule, lo int) {
		t.Helper()
		for k, bi := range got.Order {
			if bi != want.Order[lo+k] ||
				math.Float64bits(got.Builds[k]) != math.Float64bits(want.Builds[lo+k]) ||
				math.Float64bits(got.Rates[k]) != math.Float64bits(want.Rates[lo+k]) {
				t.Fatalf("%s: step %d is (%d, %v, %v), want (%d, %v, %v)", label, k,
					bi, got.Builds[k], got.Rates[k], want.Order[lo+k], want.Builds[lo+k], want.Rates[lo+k])
			}
		}
	}

	j := plan.NewJournal(from.Name)
	resolved, err := plan.RemainingSchedule(d.Model, c.W, j, true, deploy.Options{})
	if err != nil {
		t.Fatal(err)
	}
	sameSpan("replan before any build", resolved, plan.Schedule, 0)

	rp, err := ResumeMigration(c.St, c.Disk, to, j)
	if err != nil {
		t.Fatal(err)
	}
	for k := 0; k < len(order); k++ {
		j.Done, j.Next = order[:k], order[k:]
		got, err := rp.RemainingSchedule(d.Model, c.W, j, false, deploy.Options{})
		if err != nil {
			t.Fatal(err)
		}
		sameSpan(fmt.Sprintf("resume after %d builds", k), got, plan.Schedule, k)
	}

	// One build done, the next skipped: the whole-plan order runs the
	// skipped build last, after the span a resume prices.
	j.Done, j.Skipped, j.Next = order[:1], order[1:2], order[2:]
	whole, err := deploy.Evaluate(plan.Problem, append(append(append([]int(nil), j.Done...), j.Next...), j.Skipped...))
	if err != nil {
		t.Fatal(err)
	}
	got, err := rp.RemainingSchedule(d.Model, c.W, j, false, deploy.Options{})
	if err != nil {
		t.Fatal(err)
	}
	sameSpan("resume past a skip", got, whole, 1)
}
