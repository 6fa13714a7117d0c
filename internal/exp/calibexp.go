package exp

import (
	"fmt"
	"math"

	"coradd/internal/adapt"
	"coradd/internal/designer"
	"coradd/internal/ilp"
	"coradd/internal/scenario"
)

// AdaptCalibration drives the adapt scenario's drifting chrono-SSB stream
// through an attributed controller and reports the cost model's
// calibration record: per deployed object, the benefit the ILP selection
// believed in versus the benefit the measured serves delivered; per
// template, the modeled-vs-measured error, worst first, with deviations
// beyond adapt.DefaultCalibrationThreshold flagged MISCALIBRATED. The
// stream, seed and configuration are exactly the adapt ablation's, so the
// report is deterministic and names the same redesign trajectory.
//
// prof, when non-nil, receives every selection and scheduling solve's
// search-progress samples (incumbent trajectory and bound gap, keyed to
// node ordinals) — the cmd/experiments -solveprof surface.
func AdaptCalibration(s Scale, prof *ilp.SolveProfile) (*designer.CalibrationReport, *Table, error) {
	env := scenario.SSBChrono(s)
	budget := int64(AdaptBudgetMult * float64(env.Rel.HeapBytes()))
	cache := env.Evaluator().Cache

	des := newCoradd(env, env.Scale.FB.MaxIters)
	dBase, err := des.Design(budget)
	if err != nil {
		return nil, nil, err
	}

	cfg, err := adaptLoopConfig(env, budget, cache, des.Model, dBase)
	if err != nil {
		return nil, nil, err
	}
	if prof != nil {
		// The redesign copies common.Solve only over a zero FB.Solve; fill
		// it explicitly so arming the profile sink cannot drop the node and
		// deadline limits the unprofiled run solves under.
		cfg.FB.Solve = env.Common.Solve
		cfg.FB.Solve.Progress = prof.Sink()
		cfg.Deploy.Progress = prof.Sink()
	}
	ctl, err := adapt.New(env.Common, dBase, cfg)
	if err != nil {
		return nil, nil, err
	}

	stream, _ := adaptStream(8, 8)
	if _, err := ctl.Run(stream); err != nil {
		return nil, nil, err
	}
	rep := ctl.Calibration(adapt.DefaultCalibrationThreshold)

	t := &Table{
		ID:     "Ablation calib",
		Title:  "Cost-model calibration on the adapt scenario: ILP-modeled vs measured benefit per deployed object",
		Header: []string{"object", "serves", "modeled_benefit_s", "measured_benefit_s", "deviation", "flag"},
	}
	for _, o := range rep.Objects {
		flag := "-"
		if o.Flagged {
			flag = "MISCALIBRATED"
		}
		t.Rows = append(t.Rows, []string{
			o.Object, fmt.Sprintf("%d", o.Serves),
			fmt.Sprintf("%.4f", o.ModeledBenefit), fmt.Sprintf("%.4f", o.MeasuredBenefit),
			fmt.Sprintf("%.1f%%", o.Deviation()*100), flag,
		})
	}
	t.Notes = append(t.Notes,
		fmt.Sprintf("stream: the adapt ablation's drifting chrono-SSB stream; flag threshold %.0f%% relative deviation",
			rep.Threshold*100),
		fmt.Sprintf("%d (template, object) pairs observed, %d flagged miscalibrated",
			len(rep.Templates), len(rep.Flagged())))
	for i, tc := range rep.Templates {
		if i == 10 {
			t.Notes = append(t.Notes, fmt.Sprintf("(%d more templates omitted)", len(rep.Templates)-i))
			break
		}
		flag := ""
		if math.Abs(tc.Error()) > rep.Threshold {
			flag = " MISCALIBRATED"
		}
		t.Notes = append(t.Notes, fmt.Sprintf(
			"template %s via %s/%s: serves=%d modeled=%.4fs measured=%.4fs err=%+.1f%%%s",
			tc.Query, tc.Object, tc.Plan, tc.Serves, tc.ModeledSum, tc.MeasuredSum, tc.Error()*100, flag))
	}
	return rep, t, nil
}
