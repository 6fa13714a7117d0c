package exp

import (
	"bytes"
	"testing"

	"coradd/internal/scenario"
)

// TestCorrIdxAblationShape is the corridx acceptance gate: on the
// chrono-loaded SSB environment, correlation-index objects must be
// selected at one or more budget points, must never make the measured
// design worse than the corridx-free pipeline, and must be far smaller
// than the dense secondary B+Trees they replace.
func TestCorrIdxAblationShape(t *testing.T) {
	pts, table, err := CorrIdxAblation(scenario.QuickScale())
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != len(CorrIdxBudgetMults) {
		t.Fatalf("got %d points, want %d", len(pts), len(CorrIdxBudgetMults))
	}
	selected := 0
	for _, p := range pts {
		if p.WithReal > p.WithoutReal*1.02 {
			t.Errorf("budget %d: corridx design measured worse: with %.4f vs without %.4f",
				p.Budget, p.WithReal, p.WithoutReal)
		}
		if p.CorrIdxChosen > 0 {
			selected++
			if p.CorrIdxBytes*10 > p.DenseBytes {
				t.Errorf("budget %d: corridx %d bytes is not ≪ dense B+Tree %d bytes",
					p.Budget, p.CorrIdxBytes, p.DenseBytes)
			}
		}
	}
	if selected == 0 {
		t.Error("corridx selected at no budget point")
	}
	// At the tightest budgets only succinct structure fits: the corridx
	// design must deliver a real measured win there.
	if pts[0].CorrIdxChosen == 0 {
		t.Error("tightest budget: no corridx object selected")
	}
	if pts[0].WithReal >= pts[0].WithoutReal {
		t.Errorf("tightest budget: no measured win (with %.4f, without %.4f)",
			pts[0].WithReal, pts[0].WithoutReal)
	}
	var buf bytes.Buffer
	table.Print(&buf)
	if buf.Len() == 0 {
		t.Error("empty table")
	}
}
