// Package exec executes workload queries against materialized design
// objects (fact tables or MVs with clustered keys, dense B+Tree secondary
// indexes, and correlation maps), counting page reads and random seeks.
//
// The I/O accounting follows the paper's cost model (Appendix A-2.2): the
// heap is reached through its clustered B+Tree, so every contiguous heap
// fragment a plan touches costs btree_height random reads (the root-to-leaf
// descent) plus the fragment's sequential pages. This mirrors a
// clustered-table DBMS (the paper's commercial system), where secondary
// index entries carry clustered keys rather than physical RIDs.
package exec

import (
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
	// compiled caches position-bound queries per *query.Query. Objects are
	// shared across goroutines by the designer's materialization cache, so
	// the cache must be safe for concurrent use, and plans must never
	// mutate the object.
	compiled query.CompileCache
}

// compile returns q bound to this object's schema, compiling once per
// (query, object) pair. Executing the same query through several plans
// (exec.Best) or across repeated measurements reuses the binding.
func (o *Object) compile(q *query.Query) *query.Compiled {
	return o.compiled.Get(q, o.Rel.Schema.Col)
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
	if !o.Covers(q) {
		return Result{}, fmt.Errorf("exec: object %s does not cover query %s", o.Rel.Name, q.Name)
	}
	res, err := dispatch(o, q, spec)
	if err == nil {
		// Record the exact spec (including the index slot) so replaying a
		// result's Plan re-runs the same access path.
		res.Plan = spec
	}
	return res, err
}

func dispatch(o *Object, q *query.Query, spec PlanSpec) (Result, error) {
	switch spec.Kind {
	case SeqScan:
		return execSeqScan(o, q), nil
	case ClusteredScan:
		return execClusteredScan(o, q), nil
	case SecondaryScan:
		if spec.Index < 0 || spec.Index >= len(o.BTrees) {
			return Result{}, fmt.Errorf("exec: no secondary index %d on %s", spec.Index, o.Rel.Name)
		}
		return execSecondaryScan(o, q, o.BTrees[spec.Index]), nil
	case CMScan:
		if spec.Index < 0 || spec.Index >= len(o.CMs) {
			return Result{}, fmt.Errorf("exec: no CM %d on %s", spec.Index, o.Rel.Name)
		}
		return execCMScan(o, q, o.CMs[spec.Index]), nil
	case CorrIdxScan:
		if spec.Index < 0 || spec.Index >= len(o.CorrIdxs) {
			return Result{}, fmt.Errorf("exec: no correlation index %d on %s", spec.Index, o.Rel.Name)
		}
		return execCorrIdxScan(o, q, o.CorrIdxs[spec.Index])
	default:
		return Result{}, fmt.Errorf("exec: unknown plan kind %d", spec.Kind)
	}
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
		// Feasibility mirrors execCorrIdxScan: the index's host column must
		// lead the clustered key (a re-clustered heap invalidates the
		// learned ranges), so Best never trips over an unusable index.
		hosted := len(o.Rel.ClusterKey) > 0 && o.Rel.ClusterKey[0] == x.HostCol
		if hosted && q.Predicate(o.Rel.Schema.Columns[x.TargetCol].Name) != nil {
			specs = append(specs, PlanSpec{Kind: CorrIdxScan, Index: i})
		}
	}
	return specs
}

// Best executes every feasible plan and returns the result of the one with
// the smallest simulated runtime. Used by tests and by experiments that
// model an oracle optimizer.
func Best(o *Object, q *query.Query, disk storage.DiskParams) (Result, error) {
	var best Result
	bestSec := 0.0
	found := false
	for _, spec := range Plans(o, q) {
		r, err := Execute(o, q, spec)
		if err != nil {
			return Result{}, err
		}
		if sec := r.Seconds(disk); !found || sec < bestSec {
			best, bestSec = r, sec
			found = true
		}
	}
	if !found {
		return Result{}, fmt.Errorf("exec: no feasible plan for %s on %s", q.Name, o.Rel.Name)
	}
	return best, nil
}

// sumRange accumulates the aggregate and match count over rows [lo,hi)
// using the position-bound predicates of cq. This is the innermost loop of
// every plan; it runs without name resolution or closure dispatch.
func sumRange(o *Object, cq *query.Compiled, lo, hi int) (sum int64, rows int) {
	heap := o.Rel.Rows
	agg := cq.Agg
	if len(cq.Preds) == 1 && agg >= 0 {
		// Fast path for the common single-predicate aggregate: one bound
		// predicate, direct accumulation.
		p := &cq.Preds[0]
		c := p.Col
		for i := lo; i < hi; i++ {
			row := heap[i]
			if p.Matches(row[c]) {
				rows++
				sum += int64(row[agg])
			}
		}
		return sum, rows
	}
	for i := lo; i < hi; i++ {
		row := heap[i]
		if cq.MatchesRow(row) {
			rows++
			if agg >= 0 {
				sum += int64(row[agg])
			}
		}
	}
	return sum, rows
}

func execSeqScan(o *Object, q *query.Query) Result {
	sum, rows := sumRange(o, o.compile(q), 0, len(o.Rel.Rows))
	return Result{
		Sum:  sum,
		Rows: rows,
		IO:   storage.IOStats{Seeks: 1, PagesRead: o.Rel.NumPages()},
	}
}

// rowRun is a half-open row-index interval.
type rowRun struct{ lo, hi int }

// clusteredRuns computes the contiguous row runs a clustered scan must
// read, refining runs attribute by attribute down the clustered key while
// predicates allow: equality narrows and descends, IN splits and descends,
// range narrows and stops (deeper attributes are unordered across distinct
// range values), a missing predicate stops refinement.
func clusteredRuns(o *Object, q *query.Query) []rowRun {
	runs := []rowRun{{0, len(o.Rel.Rows)}}
	key := o.Rel.ClusterKey
	for depth := 0; depth < len(key); depth++ {
		name := o.Rel.Schema.Columns[key[depth]].Name
		p := q.Predicate(name)
		if p == nil {
			break
		}
		var next []rowRun
		descend := true
		for _, run := range runs {
			switch p.Op {
			case query.Eq:
				lo, hi := narrow(o, run, key[depth], p.Lo, p.Lo)
				if hi > lo {
					next = append(next, rowRun{lo, hi})
				}
			case query.Range:
				lo, hi := narrow(o, run, key[depth], p.Lo, p.Hi)
				if hi > lo {
					next = append(next, rowRun{lo, hi})
				}
				descend = false
			case query.In:
				for _, v := range p.Set {
					lo, hi := narrow(o, run, key[depth], v, v)
					if hi > lo {
						next = append(next, rowRun{lo, hi})
					}
				}
			}
		}
		runs = next
		if !descend {
			break
		}
	}
	return runs
}

// narrow binary-searches rows [run.lo,run.hi) — within which column c is
// sorted — for the sub-range with c-values in [loV,hiV].
func narrow(o *Object, run rowRun, c int, loV, hiV value.V) (int, int) {
	rows := o.Rel.Rows
	lo := run.lo + searchRows(rows[run.lo:run.hi], func(r value.Row) bool { return r[c] >= loV })
	hi := run.lo + searchRows(rows[run.lo:run.hi], func(r value.Row) bool { return r[c] > hiV })
	return lo, hi
}

func searchRows(rows []value.Row, f func(value.Row) bool) int {
	lo, hi := 0, len(rows)
	for lo < hi {
		mid := (lo + hi) / 2
		if f(rows[mid]) {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return lo
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

// chargeFragments adds the heap-access I/O for the given page fragments:
// per fragment, Height random reads (clustered-tree descent, charged as
// seeks) plus the fragment's pages sequentially.
func chargeFragments(o *Object, frags [][2]int, io *storage.IOStats) {
	for _, f := range frags {
		io.Seeks += o.Height
		io.PagesRead += f[1] - f[0]
	}
}

func execClusteredScan(o *Object, q *query.Query) Result {
	runs := clusteredRuns(o, q)
	cq := o.compile(q)
	var res Result
	intervals := make([][2]int, 0, len(runs))
	for _, run := range runs {
		s, n := sumRange(o, cq, run.lo, run.hi)
		res.Sum += s
		res.Rows += n
		if run.hi > run.lo {
			intervals = append(intervals, [2]int{o.Rel.PageOfRow(run.lo), o.Rel.PageOfRow(run.hi-1) + 1})
		}
	}
	frags := pageFragments(intervals)
	res.Fragments, res.TouchedIntervals = len(frags), len(intervals)
	chargeFragments(o, frags, &res.IO)
	return res
}

func execSecondaryScan(o *Object, q *query.Query, idx *SecondaryIndex) Result {
	lead := o.Rel.Schema.Columns[idx.Cols[0]].Name
	p := q.Predicate(lead)
	var res Result
	var rids []int32
	if p.Op == query.In {
		// One descent per IN value: locate every leaf run first, size the
		// RID buffer exactly from the match counts, then fill it — no
		// per-value allocation or regrowth.
		type leafRun struct{ start, end int }
		runs := make([]leafRun, len(p.Set))
		total := 0
		for i, v := range p.Set {
			start, end, io := idx.Tree.Range([]value.V{v}, []value.V{v})
			runs[i] = leafRun{start, end}
			total += end - start
			res.IO.Add(io)
		}
		rids = make([]int32, 0, total)
		for _, r := range runs {
			rids = idx.Tree.AppendRIDs(rids, r.start, r.end)
		}
	} else {
		r, io := idx.Tree.RangeRIDs([]value.V{p.Lo}, []value.V{p.Hi})
		rids = r
		res.IO.Add(io)
	}
	// Sorted sweep: sort RIDs, derive touched pages, merge into fragments.
	slices.Sort(rids)
	intervals := make([][2]int, 0, len(rids))
	for _, rid := range rids {
		pg := o.Rel.PageOfRow(int(rid))
		if n := len(intervals); n > 0 && intervals[n-1][1] == pg+1 {
			continue
		} else if n > 0 && intervals[n-1][1] > pg {
			continue
		}
		intervals = append(intervals, [2]int{pg, pg + 1})
	}
	frags := pageFragments(intervals)
	res.Fragments, res.TouchedIntervals = len(frags), len(intervals)
	chargeFragments(o, frags, &res.IO)
	// Evaluate over the fragment pages (the plan reads whole pages; all
	// residual predicates are applied there).
	cq := o.compile(q)
	tpp := o.Rel.TuplesPerPage()
	for _, f := range frags {
		lo := f[0] * tpp
		hi := f[1] * tpp
		if hi > len(o.Rel.Rows) {
			hi = len(o.Rel.Rows)
		}
		s, n := sumRange(o, cq, lo, hi)
		res.Sum += s
		res.Rows += n
	}
	return res
}

// execCorrIdxScan answers q through a correlation index: the target
// predicate is translated into host-value ranges, each range is narrowed to
// a contiguous heap run through the clustered order (the host column leads
// the clustered key), outlier rows are probed in the index's B+Tree, and
// the union of touched pages is swept with the full residual predicates —
// so bucketing false positives are filtered and the answer matches a scan.
func execCorrIdxScan(o *Object, q *query.Query, x *corridx.Index) (Result, error) {
	if len(o.Rel.ClusterKey) == 0 || o.Rel.ClusterKey[0] != x.HostCol {
		return Result{}, fmt.Errorf("exec: correlation index host %d does not lead %s's clustered key", x.HostCol, o.Rel.Name)
	}
	p := q.Predicate(o.Rel.Schema.Columns[x.TargetCol].Name)
	if p == nil {
		return Result{}, fmt.Errorf("exec: query %s has no predicate on correlation index target", q.Name)
	}
	var res Result
	// Read the mapping itself: one seek plus its pages.
	res.IO.Seeks++
	res.IO.PagesRead += x.Pages()
	res.IO.IndexPagesRead += x.Pages()
	var intervals [][2]int
	for _, r := range x.Translate(p) {
		lo, hi := o.Rel.PrefixRange(r.Lo, r.Hi)
		if hi > lo {
			intervals = append(intervals, [2]int{o.Rel.PageOfRow(lo), o.Rel.PageOfRow(hi-1) + 1})
		}
	}
	rids, oio := x.OutlierRIDs(p)
	res.IO.Add(oio)
	slices.Sort(rids)
	for _, rid := range rids {
		pg := o.Rel.PageOfRow(int(rid))
		intervals = append(intervals, [2]int{pg, pg + 1})
	}
	slices.SortFunc(intervals, func(a, b [2]int) int {
		if a[0] != b[0] {
			return a[0] - b[0]
		}
		return a[1] - b[1]
	})
	frags := pageFragments(intervals)
	res.Fragments, res.TouchedIntervals = len(frags), len(intervals)
	chargeFragments(o, frags, &res.IO)
	cq := o.compile(q)
	tpp := o.Rel.TuplesPerPage()
	for _, f := range frags {
		lo := f[0] * tpp
		hi := f[1] * tpp
		if hi > len(o.Rel.Rows) {
			hi = len(o.Rel.Rows)
		}
		s, n := sumRange(o, cq, lo, hi)
		res.Sum += s
		res.Rows += n
	}
	return res, nil
}

func execCMScan(o *Object, q *query.Query, m *cm.CM) Result {
	preds := make([]*query.Predicate, len(m.KeyCols))
	for i, c := range m.KeyCols {
		preds[i] = q.Predicate(o.Rel.Schema.Columns[c].Name)
	}
	var res Result
	// Read the CM itself: one seek plus its pages.
	res.IO.Seeks++
	res.IO.PagesRead += m.Pages()
	res.IO.IndexPagesRead += m.Pages()
	ranges := m.PageRanges(m.Buckets(preds))
	frags := pageFragments(ranges)
	res.Fragments, res.TouchedIntervals = len(frags), len(ranges)
	chargeFragments(o, frags, &res.IO)
	cq := o.compile(q)
	tpp := o.Rel.TuplesPerPage()
	for _, f := range frags {
		lo := f[0] * tpp
		hi := f[1] * tpp
		if hi > len(o.Rel.Rows) {
			hi = len(o.Rel.Rows)
		}
		s, n := sumRange(o, cq, lo, hi)
		res.Sum += s
		res.Rows += n
	}
	return res
}
