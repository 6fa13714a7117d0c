package exp

import (
	"testing"

	"coradd/internal/scenario"
	"coradd/internal/scenario/apbenv"
)

// These tests exercise the full designer bake-offs. They are the slowest
// in the repository (tens of seconds) and verify the paper's headline
// qualitative claims end to end.

func TestFeedbackVersusOPTShape(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	env := ssbEnv(t)
	pts, _, err := FeedbackVersusOPT(env, 6)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range pts {
		// OPT is a lower bound for both.
		if p.ILPRatio < 0.999 {
			t.Errorf("budget %d: ILP beat OPT (%.4f) — OPT not optimal", p.Budget, p.ILPRatio)
		}
		if p.FBRatio < 0.999 {
			t.Errorf("budget %d: FB beat OPT (%.4f)", p.Budget, p.FBRatio)
		}
		// Feedback never hurts.
		if p.ILPFeedback > p.ILP+1e-9 {
			t.Errorf("budget %d: feedback worsened ILP: %.4f > %.4f", p.Budget, p.ILPFeedback, p.ILP)
		}
	}
	// Feedback should reach (near-)OPT at most budgets, as in the paper.
	reached := 0
	for _, p := range pts {
		if p.FBRatio < 1.01 {
			reached++
		}
	}
	if reached*2 < len(pts) {
		t.Errorf("feedback reached OPT at only %d/%d budgets", reached, len(pts))
	}
}

func TestAPBComparisonShape(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	env := apbenv.New(scenario.QuickScale())
	pts, _, err := APBComparison(env)
	if err != nil {
		t.Fatal(err)
	}
	wins := 0
	for _, p := range pts {
		if p.CORADD < p.Commercial {
			wins++
		}
		// CORADD's model must track its real runtime closely (the paper's
		// "matched the real runtime very well").
		if p.CORADDModel > p.CORADD*1.5 || p.CORADD > p.CORADDModel*1.5 {
			t.Errorf("budget %d: CORADD model %.3f vs real %.3f diverge", p.Budget, p.CORADDModel, p.CORADD)
		}
	}
	if wins < len(pts)-1 {
		t.Errorf("CORADD won only %d/%d budgets against Commercial", wins, len(pts))
	}
	// The commercial model must underestimate its real runtime somewhere
	// (the paper's up-to-6x error).
	underestimates := 0
	for _, p := range pts {
		if p.CommercialModel < p.Commercial*0.85 {
			underestimates++
		}
	}
	if underestimates == 0 {
		t.Error("commercial model never underestimated real runtime")
	}
}

func TestRelaxationErrorShape(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	env := ssbEnv(t)
	pts, _ := RelaxationError(env, 40)
	if len(pts) == 0 {
		t.Fatal("no relaxation points")
	}
	for _, p := range pts {
		// The LP value is a lower bound; the rounded design cannot beat the
		// exact optimum.
		if p.LPLowerBound > p.Exact+1e-6 {
			t.Errorf("budget %d: LP bound %.4f above exact %.4f", p.Budget, p.LPLowerBound, p.Exact)
		}
		if p.Rounded < p.Exact-1e-6 {
			t.Errorf("budget %d: rounded %.4f beats exact %.4f", p.Budget, p.Rounded, p.Exact)
		}
	}
}

func TestSSBComparisonShape(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	// The augmented-workload bake-off is the slowest test in the repo
	// (~2 min): 52 queries through three full designers at five budgets.
	env := scenario.SSB(scenario.QuickScale(), true)
	pts, _, err := SSBComparison(env)
	if err != nil {
		t.Fatal(err)
	}
	coraddWins, naiveBeatsCommercial := 0, 0
	for _, p := range pts {
		if p.CORADD <= p.Naive*1.01 && p.CORADD <= p.Commercial*1.01 {
			coraddWins++
		}
		if p.Naive < p.Commercial {
			naiveBeatsCommercial++
		}
	}
	if coraddWins < len(pts)-1 {
		t.Errorf("CORADD best at only %d/%d budgets", coraddWins, len(pts))
	}
	// Paper: Naive beats Commercial at tight and large budgets.
	if naiveBeatsCommercial == 0 {
		t.Error("Naive never beat Commercial")
	}
	// Larger budgets should not hurt CORADD materially.
	if last, first := pts[len(pts)-1].CORADD, pts[0].CORADD; last > first {
		t.Errorf("CORADD at largest budget (%.3fs) worse than tightest (%.3fs)", last, first)
	}
}

func TestMergeAblationShape(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	env := ssbEnv(t)
	pts, _ := MergeAblation(env)
	if len(pts) == 0 {
		t.Fatal("no ablation points")
	}
	worse := 0
	for _, p := range pts {
		// Interleaving explores a superset of concatenation's key space, so
		// with the same selection it can only help.
		if p.Interleaved > p.ConcatOnly*1.02 {
			t.Errorf("budget %d: interleaved %.4f worse than concat-only %.4f", p.Budget, p.Interleaved, p.ConcatOnly)
		}
		if p.SlowdownPercent > 1 {
			worse++
		}
	}
	t.Logf("concat-only slower at %d/%d budgets", worse, len(pts))
}
