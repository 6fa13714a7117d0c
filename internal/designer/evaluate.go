package designer

import (
	"fmt"
	"sort"
	"strings"
	"sync"

	"coradd/internal/btree"
	"coradd/internal/cm"
	"coradd/internal/corridx"
	"coradd/internal/costmodel"
	"coradd/internal/exec"
	"coradd/internal/par"
	"coradd/internal/query"
	"coradd/internal/schema"
	"coradd/internal/stats"
	"coradd/internal/storage"
)

// Materialized is a deployed design: real relations, indexes and CMs, plus
// the per-query plan the deploying tool would run.
type Materialized struct {
	// Objects aligns with the design's Chosen.
	Objects []*exec.Object
	// Base is the default fact table.
	Base *exec.Object
	// Plan[q] is the object and plan spec query q runs.
	Plan []RoutedPlan
	// Bytes is the measured total size of the extra objects (excluding the
	// base heap, which exists regardless).
	Bytes int64
}

// RoutedPlan routes one query.
type RoutedPlan struct {
	Object *exec.Object
	Spec   exec.PlanSpec
}

// Evaluator materializes designs over the real fact relation and measures
// simulated runtimes. Commercial designs get their dense secondary indexes
// (cols chosen by the Commercial designer); CORADD-style designs get CMs
// from the CM Designer.
type Evaluator struct {
	Fact *storage.Relation
	W    query.Workload
	Disk storage.DiskParams
	// CMConfig tunes the CM Designer for CORADD-style designs. Change it
	// only on a fresh evaluator (or after Cache.Flush()): cached CM designs
	// are keyed by structure, not config.
	CMConfig cm.DesignerConfig
	// Commercial supplies secondary-index choices for commercial designs.
	Commercial *Commercial
	// Cache reuses physical objects (projections, sorts, B+Trees, CMs, plan
	// choices) across the designs of a budget sweep. Always non-nil after
	// NewEvaluator; evaluators sharing one fact relation may share a cache.
	Cache *ObjectCache
	// Workers bounds the evaluation worker pool (0 = one per CPU).
	Workers int

	initOnce sync.Once
	base     *exec.Object // shared base-table object, built once
}

// NewEvaluator builds an evaluator over the fact relation.
func NewEvaluator(fact *storage.Relation, w query.Workload, disk storage.DiskParams) *Evaluator {
	return &Evaluator{
		Fact: fact, W: w, Disk: disk,
		CMConfig: cm.DefaultDesignerConfig(),
		Cache:    NewObjectCache(),
		base:     exec.NewObject(fact),
	}
}

// Materialize deploys the design. Physical structures are drawn from the
// evaluator's cache: designs sharing an MV's structure (columns, clustered
// key, secondary structures) share one physical object, so only the first
// deployment pays for projection, sorting and index/CM construction. The
// design's objects are built concurrently on the worker pool.
func (e *Evaluator) Materialize(d *Design) (*Materialized, error) {
	// Support zero-value (non-NewEvaluator) construction race-free:
	// concurrent Measure calls are an intended pattern.
	e.initOnce.Do(func() {
		if e.Cache == nil {
			e.Cache = NewObjectCache()
		}
		if e.base == nil {
			e.base = exec.NewObject(e.Fact)
		}
	})
	m := &Materialized{Base: e.base, Objects: make([]*exec.Object, len(d.Chosen))}
	// Objects are independent builds: fan them across the pool, then
	// account for them in Chosen order.
	err := par.ForEachErr(len(d.Chosen), e.Workers, func(i int) error {
		var err error
		m.Objects[i], err = e.materializeObject(d, d.Chosen[i])
		return err
	})
	if err != nil {
		return nil, err
	}
	for i, md := range d.Chosen {
		obj := m.Objects[i]
		m.Bytes += obj.Bytes()
		if md.FactRecluster || md.FactOverlay {
			// The re-clustered heap replaces the base heap (and an overlay
			// IS the base heap); only the secondary structure is extra
			// space, which obj.Bytes already includes. Remove the heap
			// double-count.
			m.Bytes -= obj.Rel.HeapBytes()
		}
	}
	// Route and pick plans.
	m.Plan = make([]RoutedPlan, len(e.W))
	for qi, q := range e.W {
		obj := m.Base
		objSig := "base"
		if r := d.Routing[qi]; r >= 0 {
			obj = m.Objects[r]
			objSig = e.objectSig(d, d.Chosen[r])
		}
		var planSig strings.Builder
		planSig.WriteString(objSig)
		planSig.WriteString("|plan:")
		planSig.WriteString(q.Name)
		// Plan choice depends on the disk model (exec.Best ranks by
		// simulated seconds), so evaluators sharing a cache with different
		// DiskParams must not share plan entries.
		fmt.Fprintf(&planSig, "|disk:%g,%g", e.Disk.SeekCost, e.Disk.PageReadCost)
		if d.Style == StyleCommercial {
			planSig.WriteString("|oblivious")
		}
		spec, err := e.Cache.plan(planSig.String(), func() (exec.PlanSpec, error) {
			return e.choosePlan(d, obj, q)
		})
		if err != nil {
			return nil, err
		}
		m.Plan[qi] = RoutedPlan{Object: obj, Spec: spec}
	}
	return m, nil
}

// servedQueries lists the workload indexes routed to md, in workload order
// (matching by pointer, exactly like the pre-cache attach loop did).
func servedQueries(d *Design, md *costmodel.MVDesign) []int {
	var out []int
	for qi := range d.Routing {
		if r := d.Routing[qi]; r >= 0 && d.Chosen[r] == md {
			out = append(out, qi)
		}
	}
	return out
}

// relSig canonically identifies the projected relation of md: base column
// set plus ordered cluster key.
func relSig(md *costmodel.MVDesign) string {
	var b strings.Builder
	sigInts(&b, "cols:", md.Cols)
	sigInts(&b, "key:", md.ClusterKey)
	return b.String()
}

// objectSig canonically identifies the full physical object md deploys
// under design d: the relation plus every secondary structure the style
// attaches (CM key sets are determined by the served queries; commercial
// index columns by the Commercial designer's choice; the PK index by the
// fact-recluster flag).
func (e *Evaluator) objectSig(d *Design, md *costmodel.MVDesign) string {
	var b strings.Builder
	b.WriteString(relSig(md))
	if md.FactRecluster && len(md.PKCols) > 0 {
		sigInts(&b, "pk:", md.PKCols)
	}
	if len(md.CorrIdxs) > 0 {
		b.WriteString("|cidx:")
		for i, spec := range md.CorrIdxs {
			if i > 0 {
				b.WriteByte(';')
			}
			fmt.Fprintf(&b, "%d,%d", spec.Target, spec.Width)
		}
	}
	switch d.Style {
	case StyleCORADD:
		names := make([]string, 0, 4)
		for _, qi := range servedQueries(d, md) {
			names = append(names, e.W[qi].Name)
		}
		sigStrings(&b, "cm:", names)
	case StyleCommercial:
		sigInts(&b, "bt:", e.commercialIndexCols(md))
	}
	return b.String()
}

// commercialIndexCols resolves the base-schema secondary-index columns a
// commercial deployment builds on md.
func (e *Evaluator) commercialIndexCols(md *costmodel.MVDesign) []int {
	if e.Commercial != nil {
		return e.Commercial.SecondaryIndexCols(md)
	}
	return predicatedNonLead(e.W, e.Fact.Schema, md)
}

// materializeObject builds (or fetches) the physical object for one chosen
// design.
func (e *Evaluator) materializeObject(d *Design, md *costmodel.MVDesign) (*exec.Object, error) {
	newKey := make([]int, len(md.ClusterKey))
	for i, c := range md.ClusterKey {
		pos := indexOf(md.Cols, c)
		if pos < 0 {
			return nil, fmt.Errorf("designer: cluster key column %d not in MV columns", c)
		}
		newKey[i] = pos
	}
	rSig := relSig(md)
	return e.Cache.object(e.objectSig(d, md), func(deps *[]string) (*exec.Object, error) {
		var rel *storage.Relation
		if md.FactOverlay {
			// An overlay deploys structure on the fact heap in place: no
			// projection, no re-sort — column positions are the base's.
			rel = e.Fact
		} else {
			*deps = append(*deps, relKey(rSig))
			rel = e.Cache.relation(rSig, func() *storage.Relation {
				// Cached relations are shared by every structurally identical
				// design, so they carry a structural name (columns + key), not
				// the first requester's MV name.
				name := "mv(" + e.Fact.Schema.ColNames(md.Cols) + ";key=" + e.Fact.Schema.ColNames(md.ClusterKey) + ")"
				return e.Fact.Project(name, md.Cols, newKey)
			})
		}
		obj := exec.NewObject(rel)
		if md.FactRecluster && len(md.PKCols) > 0 {
			pkPos := make([]int, len(md.PKCols))
			for i, c := range md.PKCols {
				pkPos[i] = indexOf(md.Cols, c)
			}
			var sig strings.Builder
			sig.WriteString(rSig)
			sigInts(&sig, "tree:", pkPos)
			*deps = append(*deps, treeKey(sig.String()))
			obj.PKIndex = e.Cache.tree(sig.String(), func() *btree.Tree {
				return btree.BuildFromRelation(rel, pkPos)
			})
		}
		// Correlation indexes are the budget-charged secondary structure of
		// corridx candidates; the style's free structures (CMs for CORADD)
		// are still attached below — §5.4 sets CM space aside.
		for _, spec := range md.CorrIdxs {
			pos := indexOf(md.Cols, spec.Target)
			if pos < 0 {
				return nil, fmt.Errorf("designer: corridx target %d not in MV columns", spec.Target)
			}
			var sig strings.Builder
			sig.WriteString(rSig)
			fmt.Fprintf(&sig, "|cidx:%d,%d", spec.Target, spec.Width)
			*deps = append(*deps, cidxKey(sig.String()))
			x, err := e.Cache.corrIdx(sig.String(), func() (*corridx.Index, error) {
				return corridx.Build(rel, pos, corridx.Config{TargetWidth: spec.Width})
			})
			if err != nil {
				return nil, err
			}
			obj.AddCorrIdx(x)
		}
		switch d.Style {
		case StyleCORADD:
			// CM Designer: one CM per query the object serves (A-1.2), within
			// the per-CM space limit, deduplicated by key columns. The
			// designs are prefetched concurrently (each is an independent
			// exhaustive search), then attached sequentially in workload
			// order so dedup is deterministic.
			served := servedQueries(d, md)
			// The CM designs fan out across queries; when only one query is
			// served that fan-out is degenerate, so hand the workers to the
			// designer's per-key-set sweep instead (results are identical
			// either way).
			cmCfg := e.CMConfig
			if len(served) == 1 && cmCfg.Workers == 0 {
				if cmCfg.Workers = e.Workers; cmCfg.Workers == 0 {
					cmCfg.Workers = par.DefaultWorkers() // 0 means one per CPU here
				}
			}
			designs := make([]*cm.CM, len(served))
			sigs := make([]string, len(served))
			for i := range served {
				var sig strings.Builder
				sig.WriteString(rSig)
				sig.WriteString("|cmq:")
				sig.WriteString(e.W[served[i]].Name)
				sigs[i] = sig.String()
				*deps = append(*deps, cmKey(sigs[i]))
			}
			par.ForEach(len(served), e.Workers, func(i int) {
				q := e.W[served[i]]
				designs[i] = e.Cache.cmDesign(sigs[i], func() *cm.CM {
					return cm.Design(rel, q, cmCfg)
				})
			})
			for _, cmDesign := range designs {
				if cmDesign == nil {
					continue
				}
				dup := false
				for _, existing := range obj.CMs {
					if existing.Covers(cmDesign.KeyCols) {
						dup = true
						break
					}
				}
				if !dup {
					obj.AddCM(cmDesign)
				}
			}
		case StyleCommercial:
			for _, c := range e.commercialIndexCols(md) {
				pos := indexOf(md.Cols, c)
				if pos >= 0 {
					var sig strings.Builder
					sig.WriteString(rSig)
					sigInts(&sig, "tree:", []int{pos})
					*deps = append(*deps, treeKey(sig.String()))
					tree := e.Cache.tree(sig.String(), func() *btree.Tree {
						return btree.BuildFromRelation(rel, []int{pos})
					})
					obj.BTrees = append(obj.BTrees, &exec.SecondaryIndex{Cols: []int{pos}, Tree: tree})
				}
			}
		}
		return obj, nil
	})
}

// choosePlan picks the plan the deploying tool would run. CORADD rewrites
// queries to force its intended (accurately costed) path, so the best
// available plan runs; the commercial tool's optimizer trusts the
// oblivious model, so its believed-cheapest plan runs even when reality
// disagrees.
func (e *Evaluator) choosePlan(d *Design, obj *exec.Object, q *query.Query) (exec.PlanSpec, error) {
	switch d.Style {
	case StyleCommercial:
		return e.obliviousPlanChoice(obj, q), nil
	default:
		r, err := exec.Best(obj, q, e.Disk)
		if err != nil {
			return exec.PlanSpec{}, err
		}
		return r.Plan, nil
	}
}

// obliviousPlanChoice mirrors costmodel.Oblivious at the physical level:
// prefer the clustered path when the lead attribute is predicated; else a
// secondary index on the most selective predicated attribute if the
// believed cost (contiguity assumption) beats a scan; else scan.
func (e *Evaluator) obliviousPlanChoice(obj *exec.Object, q *query.Query) exec.PlanSpec {
	rel := obj.Rel
	if len(rel.ClusterKey) > 0 {
		lead := rel.Schema.Columns[rel.ClusterKey[0]].Name
		if q.Predicate(lead) != nil {
			return exec.PlanSpec{Kind: exec.ClusteredScan}
		}
	}
	bestIdx, bestSel := -1, 0.25 // believed break-even vs. a full scan
	for i, idx := range obj.BTrees {
		name := rel.Schema.Columns[idx.Cols[0]].Name
		p := q.Predicate(name)
		if p == nil {
			continue
		}
		sel := fractionMatching(rel, idx.Cols[0], p)
		if sel < bestSel {
			bestSel = sel
			bestIdx = i
		}
	}
	if bestIdx >= 0 {
		return exec.PlanSpec{Kind: exec.SecondaryScan, Index: bestIdx}
	}
	return exec.PlanSpec{Kind: exec.SeqScan}
}

func fractionMatching(rel *storage.Relation, col int, p *query.Predicate) float64 {
	n := 0
	// Sample every 64th row; this is the optimizer's own statistic.
	step := 64
	vals := rel.Cols[col]
	if len(vals) < 4096 {
		step = 1
	}
	seenRows := 0
	for i := 0; i < len(vals); i += step {
		seenRows++
		if p.Matches(vals[i]) {
			n++
		}
	}
	if seenRows == 0 {
		return 1
	}
	return float64(n) / float64(seenRows)
}

// RunResult is the measured outcome of one design.
type RunResult struct {
	// PerQuery are simulated seconds per query (unweighted).
	PerQuery []float64
	// Total is the weighted total in seconds.
	Total float64
	// Sums are the query answers, for cross-design correctness checks.
	Sums []int64
}

// Run executes every workload query through the materialized design and
// returns simulated runtimes. Queries execute concurrently on the worker
// pool — plans only read the shared objects — while the weighted total is
// accumulated afterwards in workload order, so the result is bit-identical
// to a sequential run.
func (e *Evaluator) Run(m *Materialized) (*RunResult, error) {
	res := &RunResult{
		PerQuery: make([]float64, len(e.W)),
		Sums:     make([]int64, len(e.W)),
	}
	err := par.ForEachErr(len(e.W), e.Workers, func(qi int) error {
		rp := m.Plan[qi]
		r, err := exec.Execute(rp.Object, e.W[qi], rp.Spec)
		if err != nil {
			return err
		}
		res.PerQuery[qi] = r.Seconds(e.Disk)
		res.Sums[qi] = r.Sum
		return nil
	})
	if err != nil {
		return nil, err
	}
	for qi, q := range e.W {
		res.Total += q.EffectiveWeight() * res.PerQuery[qi]
	}
	return res, nil
}

// Measure is Materialize followed by Run.
func (e *Evaluator) Measure(d *Design) (*RunResult, error) {
	m, err := e.Materialize(d)
	if err != nil {
		return nil, err
	}
	return e.Run(m)
}

// MeasureTemplateTraced prices one query on a deployed design through the
// real simulated substrate — the design is rerouted for the single-query
// workload, materialized through the given cache and the routed plan
// executed — and returns the measured seconds together with the
// exec.PlanTrace naming the design object and access path that served the
// template, the rows it scanned versus returned, and the cost model's
// estimate next to the measurement. It is the one measurement procedure
// the adaptive controller, the server and the ablations' static baselines
// charge stream events with, so every run prices a (state, template) pair
// identically.
func MeasureTemplateTraced(st *stats.Stats, disk storage.DiskParams, cache *ObjectCache,
	model costmodel.Model, d *Design, q *query.Query) (float64, exec.PlanTrace, error) {

	w1 := query.Workload{q}
	rd := Reroute(d, model, w1)
	ev := NewEvaluator(st.Rel, w1, disk)
	ev.Cache = cache
	m, err := ev.Materialize(rd)
	if err != nil {
		return 0, exec.PlanTrace{}, err
	}
	rp := m.Plan[0]
	r, err := exec.Execute(rp.Object, q, rp.Spec)
	if err != nil {
		return 0, exec.PlanTrace{}, err
	}
	sec := r.Seconds(disk)
	obj := "base"
	if ri := rd.Routing[0]; ri >= 0 {
		obj = rd.Chosen[ri].Name
	}
	baseSec, _ := model.Estimate(rd.Base, q)
	tr := exec.PlanTrace{
		Object:       obj,
		Query:        q.Name,
		Plan:         rp.Spec.Kind.String(),
		RowsScanned:  exec.ScannedRows(rp.Object, r),
		RowsReturned: r.Rows,
		ModeledSec:   rd.Expected[0],
		BaseSec:      baseSec,
		MeasuredSec:  sec,
	}
	return sec, tr, nil
}

func indexOf(s []int, v int) int {
	for i, x := range s {
		if x == v {
			return i
		}
	}
	return -1
}

// predicatedNonLead returns base-schema positions of predicated attributes
// carried by md other than its clustered lead.
func predicatedNonLead(w query.Workload, base *schema.Schema, md *costmodel.MVDesign) []int {
	lead := -1
	if len(md.ClusterKey) > 0 {
		lead = md.ClusterKey[0]
	}
	set := map[int]bool{}
	for _, q := range w {
		for i := range q.Predicates {
			c := base.Col(q.Predicates[i].Col)
			if c >= 0 && c != lead && md.HasCol(c) {
				set[c] = true
			}
		}
	}
	out := make([]int, 0, len(set))
	for c := range set {
		out = append(out, c)
	}
	sort.Ints(out)
	return out
}
