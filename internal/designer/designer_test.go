package designer

import (
	"testing"

	"coradd/internal/candgen"
	"coradd/internal/feedback"
	"coradd/internal/ssb"
	"coradd/internal/stats"
	"coradd/internal/storage"
)

// smallSSB builds a reduced SSB instance shared by the designer tests.
func smallSSB(t testing.TB, rows int) (*storage.Relation, *stats.Stats, Common) {
	t.Helper()
	rel := ssb.Generate(ssb.Config{Rows: rows, Customers: 1000, Suppliers: 200, Parts: 800, Seed: 11})
	st := stats.New(rel, 2048, 5)
	c := Common{
		St:      st,
		W:       ssb.Queries(),
		Disk:    storage.DefaultDiskParams(),
		PKCols:  ssb.PKCols(rel.Schema),
		BaseKey: rel.ClusterKey,
	}
	return rel, st, c
}

func smallCandCfg() candgen.Config {
	cfg := candgen.DefaultConfig()
	cfg.Alphas = []float64{0, 0.25}
	cfg.Restarts = 2
	cfg.MaxInterleavings = 16
	return cfg
}

func TestCORADDDesignFitsBudget(t *testing.T) {
	rel, _, c := smallSSB(t, 40000)
	budget := rel.HeapBytes() * 3
	d := NewCORADD(c, smallCandCfg(), feedback.Config{MaxIters: 1})
	design, err := d.Design(budget)
	if err != nil {
		t.Fatal(err)
	}
	if design.Size > budget {
		t.Errorf("design size %d exceeds budget %d", design.Size, budget)
	}
	if len(design.Chosen) == 0 {
		t.Error("expected at least one object at a 3x-heap budget")
	}
	factCount := 0
	for _, md := range design.Chosen {
		if md.FactRecluster {
			factCount++
		}
	}
	if factCount > 1 {
		t.Errorf("design has %d fact re-clusterings, want ≤ 1", factCount)
	}
}

func TestDesignsReturnSameAnswers(t *testing.T) {
	rel, _, c := smallSSB(t, 40000)
	budget := rel.HeapBytes() * 2
	ev := NewEvaluator(rel, c.W, c.Disk)

	coradd := NewCORADD(c, smallCandCfg(), feedback.Config{MaxIters: 1})
	dc, err := coradd.Design(budget)
	if err != nil {
		t.Fatal(err)
	}
	commercial := NewCommercial(c, smallCandCfg())
	dm, err := commercial.Design(budget)
	if err != nil {
		t.Fatal(err)
	}

	rc, err := ev.Measure(dc)
	if err != nil {
		t.Fatal(err)
	}
	rm, err := ev.Measure(dm)
	if err != nil {
		t.Fatal(err)
	}
	for qi := range c.W {
		if rc.Sums[qi] != rm.Sums[qi] {
			t.Errorf("%s: CORADD answer %d != Commercial answer %d",
				c.W[qi].Name, rc.Sums[qi], rm.Sums[qi])
		}
	}
}

func TestCORADDBeatsCommercialAtLargeBudget(t *testing.T) {
	rel, _, c := smallSSB(t, 60000)
	budget := rel.HeapBytes() * 6
	ev := NewEvaluator(rel, c.W, c.Disk)

	coradd := NewCORADD(c, smallCandCfg(), feedback.Config{MaxIters: 1})
	dc, err := coradd.Design(budget)
	if err != nil {
		t.Fatal(err)
	}
	commercial := NewCommercial(c, smallCandCfg())
	dm, err := commercial.Design(budget)
	if err != nil {
		t.Fatal(err)
	}
	rc, err := ev.Measure(dc)
	if err != nil {
		t.Fatal(err)
	}
	rm, err := ev.Measure(dm)
	if err != nil {
		t.Fatal(err)
	}
	if rc.Total >= rm.Total {
		t.Errorf("CORADD total %.3fs not faster than Commercial %.3fs", rc.Total, rm.Total)
	}
}

func TestNaiveDesignFitsBudget(t *testing.T) {
	rel, _, c := smallSSB(t, 30000)
	n := NewNaive(c, smallCandCfg())
	for _, mult := range []int64{1, 3, 8} {
		budget := rel.HeapBytes() * mult
		d, err := n.Design(budget)
		if err != nil {
			t.Fatal(err)
		}
		if d.Size > budget {
			t.Errorf("mult %d: size %d exceeds budget %d", mult, d.Size, budget)
		}
	}
}

func TestLargerBudgetNeverWorseExpected(t *testing.T) {
	rel, _, c := smallSSB(t, 30000)
	d := NewCORADD(c, smallCandCfg(), feedback.Config{MaxIters: 0})
	prev := -1.0
	for _, mult := range []int64{1, 2, 4, 8} {
		design, err := d.Design(rel.HeapBytes() * mult)
		if err != nil {
			t.Fatal(err)
		}
		total := design.TotalExpected(c.W)
		if prev >= 0 && total > prev*1.0001 {
			t.Errorf("budget %dx: expected total %.4fs worse than smaller budget %.4fs", mult, total, prev)
		}
		prev = total
	}
}

func TestExpectedMatchesRealForCORADD(t *testing.T) {
	rel, _, c := smallSSB(t, 60000)
	budget := rel.HeapBytes() * 4
	ev := NewEvaluator(rel, c.W, c.Disk)
	d := NewCORADD(c, smallCandCfg(), feedback.Config{MaxIters: 1})
	design, err := d.Design(budget)
	if err != nil {
		t.Fatal(err)
	}
	real, err := ev.Measure(design)
	if err != nil {
		t.Fatal(err)
	}
	exp := design.TotalExpected(c.W)
	// The paper's claim: the correlation-aware model tracks reality well.
	// Accept a 3x band in either direction on this small instance.
	if real.Total > exp*3 || exp > real.Total*3 {
		t.Errorf("expected %.3fs vs real %.3fs diverge by more than 3x", exp, real.Total)
	}
}
