package exp

import (
	"bytes"
	"math"
	"testing"

	"coradd/internal/deploy"
	"coradd/internal/scenario"
)

// TestDeployAblationShape is the deployment-scheduler acceptance gate: on
// the evolving-workload migration (SSB base → augmented), the scheduled
// order's measured cumulative workload cost must be strictly lower than
// the naive size-ascending order's, the schedule must be optimal under
// the model, and the schedule must be bit-identical at any worker count.
func TestDeployAblationShape(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	res, table, err := DeployAblation(scenario.QuickScale())
	if err != nil {
		t.Fatal(err)
	}
	plan := res.Plan
	if len(plan.Builds) < 2 {
		t.Fatalf("migration schedules only %d builds — no ordering problem", len(plan.Builds))
	}
	if !plan.Proven {
		t.Error("deployment schedule not proven optimal")
	}
	// The acceptance criterion: scheduled strictly beats size-ascending on
	// measured cumulative workload cost during the migration.
	if !(res.SchedCum < res.NaiveCum) {
		t.Errorf("scheduled measured cum %.4f not strictly below size-ascending %.4f",
			res.SchedCum, res.NaiveCum)
	}
	// Under the model the schedule is the optimum: no comparator beats it.
	if res.SchedCumModel > res.NaiveCumModel+1e-9 || res.SchedCumModel > res.ArbCumModel+1e-9 {
		t.Errorf("scheduled model cum %.4f beaten by a naive order (%.4f / %.4f)",
			res.SchedCumModel, res.NaiveCumModel, res.ArbCumModel)
	}
	// Migrating must pay off: the workload runs faster after than before.
	if res.FinalRate >= res.StartRate {
		t.Errorf("migration did not improve the workload: %.4f → %.4f", res.StartRate, res.FinalRate)
	}
	for k, s := range res.Steps {
		if s.BuildSeconds <= 0 || s.NaiveBuildSeconds <= 0 {
			t.Errorf("step %d: non-positive build seconds", k)
		}
		if k > 0 && s.SchedRate > res.Steps[k-1].SchedRate*1.05 {
			t.Errorf("step %d: measured rate %.4f rose from %.4f — a build made the workload worse",
				k, s.SchedRate, res.Steps[k-1].SchedRate)
		}
	}

	// Determinism: re-solving the same instance must reproduce the
	// schedule bit for bit.
	s, err := deploy.Solve(plan.Problem, deploy.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if math.Float64bits(s.Cum) != math.Float64bits(plan.Schedule.Cum) {
		t.Errorf("cum %v != planned %v", s.Cum, plan.Schedule.Cum)
	}
	for k := range plan.Schedule.Order {
		if s.Order[k] != plan.Schedule.Order[k] {
			t.Fatalf("order %v != planned %v", s.Order, plan.Schedule.Order)
		}
	}

	var buf bytes.Buffer
	table.Print(&buf)
	if buf.Len() == 0 {
		t.Error("empty table")
	}
}
