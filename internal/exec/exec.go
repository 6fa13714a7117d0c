// Package exec executes workload queries against materialized design
// objects (fact tables or MVs with clustered keys, dense B+Tree secondary
// indexes, and correlation maps), counting page reads and random seeks.
//
// Every access path is split into plan and run. Planning reads no tuple:
// it finds the row ranges the path reads (binary search down the clustered
// key, or index lookups mapped to heap pages), the fragments they form and
// the I/O they cost, so every path is "row ranges plus a residual filter",
// Hermit's host-range-plus-outliers shape. Running is one kernel over the
// relation's columns that filters the ranges a batch at a time into a
// selection vector and sums the aggregate over the survivors. Best plans
// every feasible path and runs only the cheapest.
//
// The I/O accounting follows the paper's cost model (Appendix A-2.2): the
// heap is reached through its clustered B+Tree, so every contiguous heap
// fragment a plan touches costs btree_height random reads (the root-to-leaf
// descent) plus the fragment's sequential pages. This mirrors a
// clustered-table DBMS (the paper's commercial system), where secondary
// index entries carry clustered keys rather than physical RIDs.
package exec

import (
	"cmp"
	"fmt"
	"slices"

	"coradd/internal/btree"
	"coradd/internal/cm"
	"coradd/internal/corridx"
	"coradd/internal/query"
	"coradd/internal/storage"
	"coradd/internal/value"
)

// FragmentGap is the prefetch window in pages: two touched pages at most
// this far apart belong to one sequential fragment (the gap pages are read
// through rather than seeking). Matches the model's notion that "two tuples
// placed at nearby positions in the heap file [are] one fragment".
const FragmentGap = 4

// SecondaryIndex is a dense B+Tree secondary index over an object.
type SecondaryIndex struct {
	Cols []int // indexed column positions in the object's schema
	Tree *btree.Tree
}

// Object is a materialized design object: a clustered relation plus its
// secondary structures.
type Object struct {
	Rel *storage.Relation
	// Height is the clustered B+Tree path length used for the per-fragment
	// seek charge; computed at materialization time.
	Height int
	BTrees []*SecondaryIndex
	CMs    []*cm.CM
	// CorrIdxs are correlation-exploiting secondary indexes (Hermit-style
	// host-range mappings with outlier trees).
	CorrIdxs []*corridx.Index
	// PKIndex, when non-nil, is the extra primary-key secondary index a
	// re-clustered fact table must carry (§4.3); counted in size only.
	PKIndex *btree.Tree
	// compiled caches position-bound queries per *query.Query, so repeated
	// measurements of a query compile it once per object. Objects are
	// shared across goroutines by the designer's materialization cache, so
	// the cache must be safe for concurrent use, and plans must never
	// mutate the object.
	compiled query.CompileCache
}

// NewObject wraps rel, computing the clustered height.
func NewObject(rel *storage.Relation) *Object {
	keyBytes := rel.Schema.SubsetBytes(rel.ClusterKey)
	if keyBytes == 0 {
		keyBytes = 8
	}
	return &Object{Rel: rel, Height: btree.EstimateHeight(rel.NumPages(), keyBytes)}
}

// AddBTree builds and attaches a dense secondary index on cols.
func (o *Object) AddBTree(cols []int) *SecondaryIndex {
	idx := &SecondaryIndex{Cols: cols, Tree: btree.BuildFromRelation(o.Rel, cols)}
	o.BTrees = append(o.BTrees, idx)
	return idx
}

// AddCM attaches a correlation map.
func (o *Object) AddCM(m *cm.CM) { o.CMs = append(o.CMs, m) }

// AddCorrIdx attaches a correlation index. The index must have been built
// over this object's relation (its host column is the clustered lead).
func (o *Object) AddCorrIdx(x *corridx.Index) { o.CorrIdxs = append(o.CorrIdxs, x) }

// Bytes is the object's total size: heap + secondary structures.
func (o *Object) Bytes() int64 {
	n := o.Rel.HeapBytes()
	for _, b := range o.BTrees {
		n += b.Tree.Bytes()
	}
	for _, m := range o.CMs {
		n += m.Bytes()
	}
	for _, x := range o.CorrIdxs {
		n += x.Bytes()
	}
	if o.PKIndex != nil {
		n += o.PKIndex.Bytes()
	}
	return n
}

// Covers reports whether the object contains every attribute q needs.
func (o *Object) Covers(q *query.Query) bool {
	for _, c := range q.AllColumns() {
		if o.Rel.Schema.Col(c) < 0 {
			return false
		}
	}
	return true
}

// PlanKind selects an access path.
type PlanKind int

const (
	// SeqScan reads the whole heap once.
	SeqScan PlanKind = iota
	// ClusteredScan narrows the heap through predicates on a prefix of the
	// clustered key.
	ClusteredScan
	// SecondaryScan uses a dense B+Tree secondary index with a sorted
	// fragment sweep of the heap.
	SecondaryScan
	// CMScan rewrites predicates through a correlation map into clustered
	// page ranges (the paper's query-rewriting technique, A-1.3).
	CMScan
	// CorrIdxScan translates a predicate on a correlated target column into
	// host-value ranges on the clustered lead (plus outlier probes) through
	// a correlation index.
	CorrIdxScan
)

// String names the plan kind.
func (k PlanKind) String() string {
	switch k {
	case SeqScan:
		return "seqscan"
	case ClusteredScan:
		return "clustered"
	case SecondaryScan:
		return "secondary"
	case CMScan:
		return "cm"
	case CorrIdxScan:
		return "corridx"
	default:
		return fmt.Sprintf("plan(%d)", int(k))
	}
}

// PlanSpec identifies one concrete plan on an object.
type PlanSpec struct {
	Kind PlanKind
	// Index selects o.BTrees[Index] or o.CMs[Index] for the index kinds.
	Index int
}

// Result is the outcome of executing a query.
type Result struct {
	// Sum is the total of the query's AggCol over matching rows; identical
	// across all correct plans, which the tests exploit.
	Sum int64
	// Rows is the number of matching tuples.
	Rows int
	// IO is the accumulated I/O.
	IO storage.IOStats
	// Plan records which plan ran.
	Plan PlanSpec
	// Fragments is the number of sequential heap fragments the plan read
	// after prefetch-gap merging; TouchedIntervals counts the contiguous
	// touched-page runs before merging (the paper's Figure 10 x-axis).
	Fragments, TouchedIntervals int
}

// Seconds converts the result's I/O into simulated seconds.
func (r Result) Seconds(p storage.DiskParams) float64 { return r.IO.Seconds(p) }

// Execute runs q on o with the chosen plan. The object must cover q.
func Execute(o *Object, q *query.Query, spec PlanSpec) (Result, error) {
	p, err := o.plan(q, spec)
	if err != nil {
		return Result{}, err
	}
	return o.run(q, p), nil
}

// plan is an access path priced but not yet run: the result's plan, I/O
// and fragment counts, and the row ranges the kernel filters.
type plan struct {
	res    Result
	ranges []rowRun
}

// rowRun is a half-open row-index interval.
type rowRun struct{ lo, hi int }

func (o *Object) plan(q *query.Query, spec PlanSpec) (plan, error) {
	if !o.Covers(q) {
		return plan{}, fmt.Errorf("exec: object %s does not cover query %s", o.Rel.Name, q.Name)
	}
	if k := spec.Kind; k >= SecondaryScan && k <= CorrIdxScan {
		if n := [...]int{len(o.BTrees), len(o.CMs), len(o.CorrIdxs)}[k-SecondaryScan]; spec.Index < 0 || spec.Index >= n {
			return plan{}, fmt.Errorf("exec: no %s index %d on %s", k, spec.Index, o.Rel.Name)
		}
	}
	var p plan
	var err error
	switch spec.Kind {
	case SeqScan:
		p.res.IO = storage.IOStats{Seeks: 1, PagesRead: o.Rel.NumPages()}
		p.ranges = []rowRun{{0, o.Rel.NumRows()}}
	case ClusteredScan:
		p = o.planClustered(q)
	case SecondaryScan:
		p = o.planSecondary(q, o.BTrees[spec.Index])
	case CMScan:
		p = o.planCM(q, o.CMs[spec.Index])
	case CorrIdxScan:
		p, err = o.planCorrIdx(q, o.CorrIdxs[spec.Index])
	default:
		err = fmt.Errorf("exec: unknown plan kind %d", spec.Kind)
	}
	// Record the exact spec (including the index slot) so replaying a
	// result's Plan re-runs the same access path.
	p.res.Plan = spec
	return p, err
}

// Plans enumerates the feasible plans for q on o, cheapest kinds last so
// callers iterating in order see the trivial plan first.
func Plans(o *Object, q *query.Query) []PlanSpec {
	specs := []PlanSpec{{Kind: SeqScan}}
	if len(o.Rel.ClusterKey) > 0 {
		lead := o.Rel.Schema.Columns[o.Rel.ClusterKey[0]].Name
		if q.Predicate(lead) != nil {
			specs = append(specs, PlanSpec{Kind: ClusteredScan})
		}
	}
	for i, idx := range o.BTrees {
		lead := o.Rel.Schema.Columns[idx.Cols[0]].Name
		if q.Predicate(lead) != nil {
			specs = append(specs, PlanSpec{Kind: SecondaryScan, Index: i})
		}
	}
	for i, m := range o.CMs {
		usable := false
		for _, c := range m.KeyCols {
			if q.Predicate(o.Rel.Schema.Columns[c].Name) != nil {
				usable = true
				break
			}
		}
		if usable {
			specs = append(specs, PlanSpec{Kind: CMScan, Index: i})
		}
	}
	for i, x := range o.CorrIdxs {
		// Feasibility mirrors planCorrIdx: the index's host column must
		// lead the clustered key (a re-clustered heap invalidates the
		// learned ranges), so Best never trips over an unusable index.
		hosted := len(o.Rel.ClusterKey) > 0 && o.Rel.ClusterKey[0] == x.HostCol
		if hosted && q.Predicate(o.Rel.Schema.Columns[x.TargetCol].Name) != nil {
			specs = append(specs, PlanSpec{Kind: CorrIdxScan, Index: i})
		}
	}
	return specs
}

// Best plans every feasible access path and runs only the one with the
// smallest simulated runtime, the earlier in Plans order on a tie: a
// plan's I/O does not depend on what its rows hold. Used by tests and by
// experiments that model an oracle optimizer.
func Best(o *Object, q *query.Query, disk storage.DiskParams) (Result, error) {
	var best plan
	for i, spec := range Plans(o, q) {
		p, err := o.plan(q, spec)
		if err != nil {
			return Result{}, err
		}
		if i == 0 || p.res.Seconds(disk) < best.res.Seconds(disk) {
			best = p
		}
	}
	return o.run(q, best), nil
}

// batch is how many rows the kernel filters at a time, so the selection
// vector stays cache-resident while the predicates narrow it.
const batch = 1024

// run is the one scan kernel. It answers q over p's row ranges a batch at
// a time: the first predicate writes the offsets of its matches in its
// column into a selection vector, each further predicate narrows the
// vector, and the aggregate column is summed over what is left. Only the
// predicated and aggregated columns are read.
func (o *Object) run(q *query.Query, p plan) Result {
	cq, cols, res := o.compiled.Get(q, o.Rel.Schema.Col), o.Rel.Cols, p.res
	var sel [batch]int32
	for _, r := range p.ranges {
		for lo := r.lo; lo < r.hi; lo += batch {
			hi := min(lo+batch, r.hi)
			n := hi - lo
			for i := range cq.Preds {
				pr := &cq.Preds[i]
				n = filter(pr, cols[pr.Col][lo:hi], sel[:n], i == 0)
			}
			res.Rows += n
			if cq.Agg < 0 {
				continue
			}
			agg := cols[cq.Agg][lo:hi]
			if len(cq.Preds) == 0 {
				for _, v := range agg {
					res.Sum += v
				}
				continue
			}
			for _, i := range sel[:n] {
				res.Sum += agg[i]
			}
		}
	}
	return res
}

// filter narrows sel, offsets into col, to those whose value satisfies pr
// and returns how many it kept; dense starts from every offset of col
// instead (sel is then as long as col). Eq and Range share one loop that
// stores unconditionally and advances on a match, so it compiles without
// a branch: lo ≤ v ≤ hi is one unsigned comparison, v−lo ≤ hi−lo modulo
// 2⁶⁴ (exact for every lo ≤ hi), and Eq is the range [lo,lo].
func filter(pr *query.CompiledPred, col []value.V, sel []int32, dense bool) int {
	k, lo, span := 0, pr.Lo, uint64(pr.Hi)-uint64(pr.Lo)
	switch {
	case pr.Op == query.Eq:
		span = 0
	case pr.Op == query.Range && pr.Lo > pr.Hi:
		return 0
	case pr.Op != query.Range: // In and the rest, through Matches
		if dense {
			for i := range col {
				sel[i] = int32(i)
			}
		}
		for _, i := range sel {
			sel[k] = i
			k += b2i(pr.Matches(col[i]))
		}
		return k
	}
	if dense {
		for i, v := range col {
			sel[k] = int32(i)
			k += b2i(uint64(v)-uint64(lo) <= span)
		}
		return k
	}
	for _, i := range sel {
		sel[k] = i
		k += b2i(uint64(col[i])-uint64(lo) <= span)
	}
	return k
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// clusteredRuns computes the contiguous row runs a clustered scan must
// read, refining runs attribute by attribute down the clustered key while
// predicates allow: equality narrows and descends, IN splits and descends,
// range narrows and stops (deeper attributes are unordered across distinct
// range values), a missing predicate stops refinement.
func clusteredRuns(o *Object, q *query.Query) []rowRun {
	runs := []rowRun{{0, o.Rel.NumRows()}}
	key := o.Rel.ClusterKey
	for depth := 0; depth < len(key); depth++ {
		p := q.Predicate(o.Rel.Schema.Columns[key[depth]].Name)
		if p == nil {
			break
		}
		var next []rowRun
		add := func(run rowRun, loV, hiV value.V) {
			if lo, hi := o.Rel.SortedRange(key[depth], run.lo, run.hi, loV, hiV); hi > lo {
				next = append(next, rowRun{lo, hi})
			}
		}
		for _, run := range runs {
			switch p.Op {
			case query.Eq:
				add(run, p.Lo, p.Lo)
			case query.Range:
				add(run, p.Lo, p.Hi)
			case query.In:
				for _, v := range p.Set {
					add(run, v, v)
				}
			}
		}
		runs = next
		if p.Op == query.Range {
			break
		}
	}
	return runs
}

// pageFragments converts touched page intervals (half-open, sorted by lo)
// into merged sequential fragments, bridging gaps of up to FragmentGap
// pages (the bridged pages are read through and counted).
func pageFragments(intervals [][2]int) [][2]int {
	var out [][2]int
	for _, iv := range intervals {
		if n := len(out); n > 0 && iv[0] <= out[n-1][1]+FragmentGap {
			if iv[1] > out[n-1][1] {
				out[n-1][1] = iv[1]
			}
			continue
		}
		out = append(out, iv)
	}
	return out
}

// heapPlan prices reading the touched page intervals (half-open, sorted by
// lo) on top of io, the I/O already spent finding them: the intervals are
// merged into fragments, each charged Height random reads (clustered-tree
// descent, charged as seeks) plus its pages sequentially. The plan reads
// whole pages, so the kernel filters every row of every fragment with all
// of q's predicates.
func (o *Object) heapPlan(io storage.IOStats, intervals [][2]int) plan {
	frags := pageFragments(intervals)
	p := plan{res: Result{IO: io, Fragments: len(frags), TouchedIntervals: len(intervals)}}
	tpp, n := o.Rel.TuplesPerPage(), o.Rel.NumRows()
	for _, f := range frags {
		p.res.IO.Seeks += o.Height
		p.res.IO.PagesRead += f[1] - f[0]
		p.ranges = append(p.ranges, rowRun{f[0] * tpp, min(f[1]*tpp, n)})
	}
	return p
}

// planClustered reads exactly the clustered runs; their pages price it.
func (o *Object) planClustered(q *query.Query) plan {
	runs := clusteredRuns(o, q)
	tpp := o.Rel.TuplesPerPage()
	intervals := make([][2]int, 0, len(runs))
	for _, run := range runs {
		if run.hi > run.lo {
			intervals = append(intervals, [2]int{run.lo / tpp, (run.hi-1)/tpp + 1})
		}
	}
	p := o.heapPlan(storage.IOStats{}, intervals)
	p.ranges = runs
	return p
}

func (o *Object) planSecondary(q *query.Query, idx *SecondaryIndex) plan {
	pred := q.Predicate(o.Rel.Schema.Columns[idx.Cols[0]].Name)
	var io storage.IOStats
	var rids []int32
	if pred.Op == query.In {
		for _, v := range pred.Set { // one descent per IN value
			start, end, lio := idx.Tree.Range([]value.V{v}, []value.V{v})
			rids = idx.Tree.AppendRIDs(rids, start, end)
			io.Add(lio)
		}
	} else {
		rids, io = idx.Tree.RangeRIDs([]value.V{pred.Lo}, []value.V{pred.Hi})
	}
	// Sorted sweep: sort RIDs, one interval per distinct touched page.
	slices.Sort(rids)
	tpp := o.Rel.TuplesPerPage()
	intervals := make([][2]int, 0, len(rids))
	for _, rid := range rids {
		pg := int(rid) / tpp
		if n := len(intervals); n > 0 && intervals[n-1][1] > pg {
			continue
		}
		intervals = append(intervals, [2]int{pg, pg + 1})
	}
	return o.heapPlan(io, intervals)
}

// planCorrIdx answers q through a correlation index: the target predicate
// is translated into host-value ranges, each range is narrowed to a
// contiguous heap run through the clustered order (the host column leads
// the clustered key), outlier rows are probed in the index's B+Tree, and
// the union of touched pages is swept with the full residual predicates —
// so bucketing false positives are filtered and the answer matches a scan.
func (o *Object) planCorrIdx(q *query.Query, x *corridx.Index) (plan, error) {
	if len(o.Rel.ClusterKey) == 0 || o.Rel.ClusterKey[0] != x.HostCol {
		return plan{}, fmt.Errorf("exec: correlation index host %d does not lead %s's clustered key", x.HostCol, o.Rel.Name)
	}
	pred := q.Predicate(o.Rel.Schema.Columns[x.TargetCol].Name)
	if pred == nil {
		return plan{}, fmt.Errorf("exec: query %s has no predicate on correlation index target", q.Name)
	}
	// Read the mapping itself: one seek plus its pages.
	io := storage.IOStats{Seeks: 1, PagesRead: x.Pages(), IndexPagesRead: x.Pages()}
	tpp := o.Rel.TuplesPerPage()
	var intervals [][2]int
	for _, r := range x.Translate(pred) {
		if lo, hi := o.Rel.SortedRange(x.HostCol, 0, o.Rel.NumRows(), r.Lo, r.Hi); hi > lo {
			intervals = append(intervals, [2]int{lo / tpp, (hi-1)/tpp + 1})
		}
	}
	rids, oio := x.OutlierRIDs(pred)
	io.Add(oio)
	for _, rid := range rids {
		pg := int(rid) / tpp
		intervals = append(intervals, [2]int{pg, pg + 1})
	}
	slices.SortFunc(intervals, func(a, b [2]int) int { return cmp.Or(a[0]-b[0], a[1]-b[1]) })
	return o.heapPlan(io, intervals), nil
}

func (o *Object) planCM(q *query.Query, m *cm.CM) plan {
	preds := make([]*query.Predicate, len(m.KeyCols))
	for i, c := range m.KeyCols {
		preds[i] = q.Predicate(o.Rel.Schema.Columns[c].Name)
	}
	// Read the CM itself: one seek plus its pages.
	io := storage.IOStats{Seeks: 1, PagesRead: m.Pages(), IndexPagesRead: m.Pages()}
	return o.heapPlan(io, m.PageRanges(m.Buckets(preds)))
}
