package exp

import (
	"bytes"
	"testing"

	"coradd/internal/scenario"
)

// quickEnv caches the SSB environment across tests in this package.
var quickSSB *scenario.Env

func ssbEnv(t testing.TB) *scenario.Env {
	t.Helper()
	if quickSSB == nil {
		quickSSB = scenario.SSB(scenario.QuickScale(), false)
	}
	return quickSSB
}

func TestSelectivityVectorsTables(t *testing.T) {
	env := ssbEnv(t)
	res, t1, t2 := SelectivityVectors(env)
	if len(res.Queries) != 3 {
		t.Fatalf("expected 3 flight-1 queries, got %d", len(res.Queries))
	}
	// Table 1: Q1.1 predicates year (~1/7), discount (3/11), quantity (~half).
	yearIdx := 0
	if got := res.Raw[0][yearIdx]; got < 0.1 || got > 0.2 {
		t.Errorf("Q1.1 raw year selectivity = %.3f, want ≈ 1/7", got)
	}
	// Q1.2 predicates yearmonth but not year: raw year selectivity is 1.
	if got := res.Raw[1][yearIdx]; got != 1 {
		t.Errorf("Q1.2 raw year selectivity = %.3f, want 1", got)
	}
	// Table 2: propagation pushes Q1.2's year selectivity down to ≈ 1/7
	// because yearmonth determines year.
	if got := res.Propagated[1][yearIdx]; got > 0.25 {
		t.Errorf("Q1.2 propagated year selectivity = %.3f, want ≈ 1/7", got)
	}
	// yearmonth → year is a perfect dependency.
	if s := res.Strengths["yearmonth->year"]; s < 0.95 {
		t.Errorf("strength(yearmonth→year) = %.3f, want ≈ 1", s)
	}
	// year → yearmonth is weak (~1/12).
	if s := res.Strengths["year->yearmonth"]; s > 0.3 {
		t.Errorf("strength(year→yearmonth) = %.3f, want ≈ 1/12", s)
	}
	var buf bytes.Buffer
	t1.Print(&buf)
	t2.Print(&buf)
	if buf.Len() == 0 {
		t.Error("empty table output")
	}
}

func TestILPVersusGreedyShape(t *testing.T) {
	env := ssbEnv(t)
	pts, _ := ILPVersusGreedy(env)
	if len(pts) != len(env.Budgets()) {
		t.Fatalf("points = %d, want %d", len(pts), len(env.Budgets()))
	}
	anyGap := false
	for _, p := range pts {
		if p.ILPExpected > p.GreedyExpect+1e-9 {
			t.Errorf("budget %d: ILP %.3f worse than greedy %.3f", p.Budget, p.ILPExpected, p.GreedyExpect)
		}
		if p.GreedyExpect > p.ILPExpected*1.02 {
			anyGap = true
		}
	}
	if !anyGap {
		t.Log("warning: greedy matched ILP at every budget on this instance")
	}
}

func TestILPSolverScalingRuns(t *testing.T) {
	pts, _ := ILPSolverScaling([]int{500, 2000}, 20, 3)
	if len(pts) != 2 {
		t.Fatalf("points = %d", len(pts))
	}
	for _, p := range pts {
		if p.Seconds < 0 || p.Nodes <= 0 {
			t.Errorf("bad scaling point %+v", p)
		}
	}
}

func TestCostModelErrorShape(t *testing.T) {
	env := ssbEnv(t)
	pts, _ := CostModelError(env)
	if len(pts) < 4 {
		t.Fatalf("got %d clusterings", len(pts))
	}
	// Real runtime must vary substantially across clusterings while the
	// oblivious model stays nearly flat.
	minReal, maxReal := pts[0].RealSeconds, pts[0].RealSeconds
	minObl, maxObl := pts[0].ObliviousModel, pts[0].ObliviousModel
	for _, p := range pts[1:] {
		minReal = min(minReal, p.RealSeconds)
		maxReal = max(maxReal, p.RealSeconds)
		minObl = min(minObl, p.ObliviousModel)
		maxObl = max(maxObl, p.ObliviousModel)
	}
	if maxReal < 2*minReal {
		t.Errorf("real runtimes too flat: %.4f..%.4f", minReal, maxReal)
	}
	if maxObl > 1.05*minObl {
		t.Errorf("oblivious model not flat: %.4f..%.4f", minObl, maxObl)
	}
	// The correlated clustering (first) must be the fastest; the
	// uncorrelated (last) the slowest.
	if pts[0].RealSeconds >= pts[len(pts)-1].RealSeconds {
		t.Errorf("correlated clustering %.4fs not faster than uncorrelated %.4fs",
			pts[0].RealSeconds, pts[len(pts)-1].RealSeconds)
	}
}

func TestAccessPatternGap(t *testing.T) {
	env := ssbEnv(t)
	res, _ := AccessPatternGap(env)
	if res.Ratio < 2 {
		t.Errorf("correlated/uncorrelated gap ratio = %.2f, want > 2", res.Ratio)
	}
}

func TestMaintenanceCostShape(t *testing.T) {
	cfg := DefaultMaintenanceConfig()
	cfg.Inserts = 20000
	pts, _ := MaintenanceCost(cfg)
	if len(pts) != len(cfg.ExtraObjectPages) {
		t.Fatalf("points = %d", len(pts))
	}
	// Monotone growth, with a sharp knee once objects exceed the pool.
	for i := 1; i < len(pts); i++ {
		if pts[i].Hours+1e-12 < pts[i-1].Hours {
			t.Errorf("maintenance cost not monotone at %d: %.4f < %.4f", i, pts[i].Hours, pts[i-1].Hours)
		}
	}
	first, last := pts[0].Hours, pts[len(pts)-1].Hours
	if last < 10*first+1e-9 {
		t.Errorf("no cost explosion: first %.5fh last %.5fh", first, last)
	}
}

func TestMaintenanceKneeAtPoolSize(t *testing.T) {
	cfg := DefaultMaintenanceConfig()
	cfg.Inserts = 20000
	pts, _ := MaintenanceCost(cfg)
	// The pool holds the additional objects' hot pages; points whose extra
	// pages fit stay cheap, the ones beyond the pool explode.
	var fits, overflows float64
	for i, extra := range cfg.ExtraObjectPages {
		if extra <= cfg.PoolPages*3/4 {
			fits = pts[i].Hours
		} else if extra > cfg.PoolPages && overflows == 0 {
			overflows = pts[i].Hours
		}
	}
	if overflows <= fits*2 {
		t.Errorf("knee missing: in-pool %.5fh vs overflow %.5fh", fits, overflows)
	}
}

func TestUpdateCostCMvsBTree(t *testing.T) {
	cfg := DefaultUpdateCostConfig()
	cfg.Rows = 40000
	cfg.Inserts = 8000
	pts, _ := UpdateCostCMvsBTree(cfg)
	if len(pts) != len(cfg.IndexCounts) {
		t.Fatalf("points = %d", len(pts))
	}
	for i, p := range pts {
		// CM maintenance must stay far cheaper than B+Tree maintenance once
		// several indexes exist (the paper's "almost no effect").
		if p.Indexes >= 4 && p.CMHours*3 > p.BTreeHours {
			t.Errorf("k=%d: CM %.4fh not ≪ B+Tree %.4fh", p.Indexes, p.CMHours, p.BTreeHours)
		}
		// B+Tree cost grows with index count.
		if i > 0 && p.BTreeHours+1e-9 < pts[i-1].BTreeHours {
			t.Errorf("B+Tree cost not monotone at k=%d", p.Indexes)
		}
	}
	// CM cost stays nearly flat across index counts.
	if last, first := pts[len(pts)-1].CMHours, pts[0].CMHours; last > first*3+1e-9 {
		t.Errorf("CM cost grew %.4f → %.4f across index counts", first, last)
	}
}

func min(a, b float64) float64 {
	if a < b {
		return a
	}
	return b
}

func max(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}
