package designer

import (
	"fmt"
	"testing"

	"coradd/internal/cm"
	"coradd/internal/costmodel"
	"coradd/internal/exec"
	"coradd/internal/query"
	"coradd/internal/ssb"
	"coradd/internal/storage"
)

// manualDesign builds a Design directly so materialization behaviour can
// be tested without running the whole pipeline.
func manualDesign(t *testing.T, c Common, style Style, md *costmodel.MVDesign) *Design {
	t.Helper()
	d := &Design{
		Name:   "manual",
		Style:  style,
		Budget: 1 << 40,
		Chosen: []*costmodel.MVDesign{md},
		Base:   c.BaseDesign(),
	}
	d.Routing = make([]int, len(c.W))
	d.Expected = make([]float64, len(c.W))
	d.Paths = make([]costmodel.PathKind, len(c.W))
	for qi := range c.W {
		if md.Covers(c.St, c.W[qi]) {
			d.Routing[qi] = 0
		} else {
			d.Routing[qi] = -1
		}
	}
	return d
}

func TestMaterializeFactReclusterHasPKIndex(t *testing.T) {
	rel, st, c := smallSSB(t, 20000)
	all := make([]int, len(rel.Schema.Columns))
	for i := range all {
		all[i] = i
	}
	md := &costmodel.MVDesign{
		Name: "fact_on_year", Cols: all,
		ClusterKey:    []int{rel.Schema.MustCol(ssb.ColYear)},
		FactRecluster: true,
		PKCols:        ssb.PKCols(rel.Schema),
	}
	_ = st
	d := manualDesign(t, c, StyleCORADD, md)
	ev := NewEvaluator(rel, c.W, c.Disk)
	m, err := ev.Materialize(d)
	if err != nil {
		t.Fatal(err)
	}
	obj := m.Objects[0]
	if obj.PKIndex == nil {
		t.Fatal("re-clustered fact lacks the PK secondary index (§4.3)")
	}
	// Size accounting: the replacement heap must not be double-counted.
	if m.Bytes >= obj.Bytes() {
		t.Errorf("measured extra bytes %d should exclude the replaced heap (object total %d)", m.Bytes, obj.Bytes())
	}
	// The new clustering must actually hold.
	yc := obj.Rel.Schema.MustCol(ssb.ColYear)
	for i := 1; i < obj.Rel.NumRows(); i++ {
		if obj.Rel.Cols[yc][i-1] > obj.Rel.Cols[yc][i] {
			t.Fatal("re-clustered heap not sorted on year")
		}
	}
}

func TestMaterializeCORADDAttachesCMs(t *testing.T) {
	// Needs a heap big enough that a CM lookup beats a sequential scan —
	// on tiny MVs the CM Designer rightly abstains.
	rel, _, c := smallSSB(t, 150000)
	// A shared MV for the flight-1 queries clustered on year: the CM
	// designer should attach maps for the non-prefix predicates.
	grpCols := map[int]bool{}
	for _, q := range c.W[:3] {
		for _, name := range q.AllColumns() {
			grpCols[rel.Schema.MustCol(name)] = true
		}
	}
	var cols []int
	for ci := range rel.Schema.Columns {
		if grpCols[ci] {
			cols = append(cols, ci)
		}
	}
	md := &costmodel.MVDesign{
		Name: "mv_flight1", Cols: cols,
		ClusterKey: []int{rel.Schema.MustCol(ssb.ColYear)},
		Queries:    []int{0, 1, 2},
	}
	d := manualDesign(t, c, StyleCORADD, md)
	for qi := range c.W {
		if qi > 2 {
			d.Routing[qi] = -1
		}
	}
	ev := NewEvaluator(rel, c.W, c.Disk)
	m, err := ev.Materialize(d)
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Objects[0].CMs) == 0 {
		t.Error("CORADD-style object got no correlation maps")
	}
	if len(m.Objects[0].BTrees) != 0 {
		t.Error("CORADD-style object got dense B+Trees")
	}
}

// TestCMDesignUsesEvaluatorDisk: the CM Designer ranks CMs by simulated
// seconds, so an evaluator with its own disk model attaches the CMs that
// model ranks best, not the default disk's, even when it shares a cache
// with a default-disk evaluator that built the same object first. Reading
// pages at 100× the default cost makes a CM worth keeping where the
// default disk keeps none.
func TestCMDesignUsesEvaluatorDisk(t *testing.T) {
	ev, d, c := cacheFixture(t, 20000)
	disk := storage.DiskParams{SeekCost: storage.DefaultSeekCost, PageReadCost: 100 * storage.DefaultPageReadCost}
	render := func(cms []*cm.CM) string {
		var s string
		for _, m := range cms {
			s += fmt.Sprintf("%v/%v=%d ", m.KeyCols, m.KeyWidths, m.NumPairs())
		}
		return s
	}
	def, err := ev.Materialize(d)
	if err != nil {
		t.Fatal(err)
	}
	custom := NewEvaluator(ev.Fact, c.W, disk)
	custom.Cache = ev.Cache
	got, err := custom.Materialize(d)
	if err != nil {
		t.Fatal(err)
	}
	// The CMs cm.Design picks under the custom disk, deduplicated the way
	// Materialize attaches them.
	cfg := cm.DefaultDesignerConfig()
	cfg.Disk = disk
	var want []*cm.CM
	for _, qi := range servedQueries(d, d.Chosen[0]) {
		m := cm.Design(got.Objects[0].Rel, c.W[qi], cfg)
		dup := m == nil
		for _, w := range want {
			dup = dup || w.Covers(m.KeyCols)
		}
		if !dup {
			want = append(want, m)
		}
	}
	if g, w := render(got.Objects[0].CMs), render(want); g != w {
		t.Errorf("custom-disk evaluator attached CMs %q, its disk model picks %q", g, w)
	}
	if render(want) == render(def.Objects[0].CMs) {
		t.Fatalf("the custom disk picks the default disk's CMs (%q): the test shows nothing", render(want))
	}
}

func TestMaterializeCommercialAttachesBTrees(t *testing.T) {
	rel, _, c := smallSSB(t, 20000)
	commercial := NewCommercial(c, smallCandCfg())
	d, err := commercial.Design(rel.HeapBytes() * 4)
	if err != nil {
		t.Fatal(err)
	}
	ev := NewEvaluator(rel, c.W, c.Disk)
	ev.Commercial = commercial
	m, err := ev.Materialize(d)
	if err != nil {
		t.Fatal(err)
	}
	btrees, cms := 0, 0
	for _, obj := range m.Objects {
		btrees += len(obj.BTrees)
		cms += len(obj.CMs)
	}
	if cms != 0 {
		t.Error("commercial design deployed correlation maps")
	}
	if len(m.Objects) > 0 && btrees == 0 {
		t.Error("commercial design deployed no secondary B+Trees")
	}
}

func TestObliviousPlanChoicePrefersClusteredLead(t *testing.T) {
	rel, _, c := smallSSB(t, 20000)
	ev := NewEvaluator(rel, c.W, c.Disk)
	all := make([]int, len(rel.Schema.Columns))
	for i := range all {
		all[i] = i
	}
	mv := rel.Project("mv", all, []int{rel.Schema.MustCol(ssb.ColYear)})
	obj := exec.NewObject(mv)
	obj.AddBTree([]int{rel.Schema.MustCol(ssb.ColDiscount)})

	qLead := &query.Query{Name: "ql", Fact: "lineorder",
		Predicates: []query.Predicate{query.NewEq(ssb.ColYear, 1993)}, AggCol: ssb.ColRevenue}
	if spec := ev.obliviousPlanChoice(obj, qLead); spec.Kind != exec.ClusteredScan {
		t.Errorf("lead-predicated query got %v, want clustered", spec.Kind)
	}
	// A predicate only on a wide, unindexed-selectivity attribute (discount
	// selects ~27%) is above the believed break-even: sequential scan.
	qWide := &query.Query{Name: "qw", Fact: "lineorder",
		Predicates: []query.Predicate{query.NewRange(ssb.ColDiscount, 1, 3)}, AggCol: ssb.ColRevenue}
	if spec := ev.obliviousPlanChoice(obj, qWide); spec.Kind != exec.SeqScan {
		t.Errorf("wide predicate got %v, want seqscan", spec.Kind)
	}
}

func TestMeasureRunsEveryQuery(t *testing.T) {
	rel, _, c := smallSSB(t, 20000)
	d := manualDesign(t, c, StyleCORADD, &costmodel.MVDesign{
		Name: "noop",
		Cols: []int{0}, ClusterKey: []int{0},
	})
	// Nothing covers anything: everything routes to base and still runs.
	for qi := range c.W {
		d.Routing[qi] = -1
	}
	ev := NewEvaluator(rel, c.W, c.Disk)
	res, err := ev.Measure(d)
	if err != nil {
		t.Fatal(err)
	}
	for qi, sec := range res.PerQuery {
		if sec <= 0 {
			t.Errorf("query %d: %vs", qi, sec)
		}
	}
}
