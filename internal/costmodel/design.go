// Package costmodel implements the two query cost models the paper pits
// against each other: the correlation-aware model of Appendix A-2.2 (used
// by CORADD) and a correlation-oblivious model of the kind conventional
// designers use (used by the Commercial baseline; see Figure 10).
//
// Both models price a query on a *hypothetical* MV design — columns plus a
// clustered key over the base (pre-joined) fact relation — from statistics
// only, without materializing anything. The common shape is the paper's
//
//	cost = fullscancost × selectivity + seek_cost × fragments × btree_height
//
// The models differ in how they estimate selectivity and, crucially,
// fragments: the aware model measures co-occurrence with the clustered key
// on a synopsis, the oblivious model assumes matching tuples are contiguous
// regardless of clustering.
package costmodel

import (
	"fmt"
	"slices"

	"coradd/internal/btree"
	"coradd/internal/corridx"
	"coradd/internal/query"
	"coradd/internal/stats"
	"coradd/internal/storage"
	"coradd/internal/value"
)

// CorrIdxSpec describes one correlation-exploiting secondary index
// (internal/corridx) a candidate deploys: predicates on Target are
// translated into value ranges on the design's clustered lead. The Est*
// fields are the statistics-time predictions candidate generation attaches
// so the ILP can charge size without building anything.
type CorrIdxSpec struct {
	// Target is the predicated base-column position the index serves.
	Target int
	// Width is the target bucketing width (1 = exact values).
	Width value.V
	// EstEntries is the predicted mapping entry count (distinct target
	// buckets).
	EstEntries int
	// EstOutlierFrac is the predicted fraction of rows in the outlier tree.
	EstOutlierFrac float64
}

// MVDesign is a hypothetical materialized view: a projection of the base
// fact relation clustered on ClusterKey. A fact-table re-clustering
// (§4.3) is an MVDesign over all columns with FactRecluster set; it incurs
// the extra primary-key secondary index in its size.
type MVDesign struct {
	// Name identifies the candidate for diagnostics.
	Name string
	// Cols are the base-relation column positions the MV carries, sorted.
	Cols []int
	// ClusterKey is the ordered clustered key, a subset of Cols.
	ClusterKey []int
	// FactRecluster marks a re-clustering of the fact table itself rather
	// than a projected MV.
	FactRecluster bool
	// FactOverlay marks a candidate that deploys secondary structure
	// (CorrIdxs) on the fact heap *in place*, keeping its existing
	// clustering: only the structure is charged as space, and the candidate
	// joins the fact-exclusion group (a re-clustering would invalidate it).
	FactOverlay bool
	// PKCols are the primary-key columns of the fact table; a re-clustered
	// fact table must carry a secondary index on them (§4.3).
	PKCols []int
	// FactGroup is no longer read or set: every selection instance holds
	// one fact table, and ilp.Pool offsets each block's exclusion group.
	// It stays for its key in checkpoint JSON (TestRestoreCheckpointV1);
	// dropping it is a durable.Version bump.
	FactGroup int
	// Queries is the query group the candidate was generated for
	// (indexes into the workload); informational, used by ILP feedback.
	Queries []int
	// CorrIdxs are the correlation indexes the candidate deploys on its
	// clustered heap; each translates one predicated column into value
	// ranges on the candidate's clustered lead. Attachable to fact
	// re-clusterings, to the fact heap in place (FactOverlay) and to
	// projected MVs.
	CorrIdxs []CorrIdxSpec
}

// HasCol reports whether base column c is carried by the design.
func (d *MVDesign) HasCol(c int) bool {
	_, ok := slices.BinarySearch(d.Cols, c)
	return ok
}

// Validate requires d to be an object a designer could have recorded over
// an nCols-column fact: at least one column, columns strictly ascending
// inside the schema, a clustered key it carries, and every other position
// inside the schema. Restarts hold decoded checkpoints to it.
func (d *MVDesign) Validate(nCols int) error {
	if len(d.Cols) == 0 {
		return fmt.Errorf("carries no columns")
	}
	for i, p := range d.Cols {
		if p < 0 || p >= nCols {
			return fmt.Errorf("column position %d outside the %d-column fact schema", p, nCols)
		}
		if i > 0 && p <= d.Cols[i-1] {
			return fmt.Errorf("columns %v not strictly ascending", d.Cols)
		}
	}
	for _, p := range d.ClusterKey {
		if !d.HasCol(p) {
			return fmt.Errorf("clustered key column %d is not carried", p)
		}
	}
	for _, p := range d.PKCols {
		if p < 0 || p >= nCols {
			return fmt.Errorf("primary-key position %d outside the %d-column fact schema", p, nCols)
		}
	}
	for _, ci := range d.CorrIdxs {
		if ci.Target < 0 || ci.Target >= nCols {
			return fmt.Errorf("correlation index on column position %d outside the %d-column fact schema", ci.Target, nCols)
		}
	}
	return nil
}

// Covers reports whether the design carries every attribute q needs, read
// off the base positions st caches per query.
func (d *MVDesign) Covers(st *stats.Stats, q *query.Query) bool {
	return d.covers(st.MatchBits(q))
}

func (d *MVDesign) covers(mb *stats.Match) bool {
	for _, c := range mb.Cols {
		if c < 0 || !d.HasCol(c) {
			return false
		}
	}
	return true
}

// RowBytes is the logical tuple width of the MV.
func (d *MVDesign) RowBytes(st *stats.Stats) int {
	return st.Rel.Schema.SubsetBytes(d.Cols)
}

// NumPages is the MV heap size in pages (it carries one row per base row —
// designs are pre-joined projections, not aggregates).
func (d *MVDesign) NumPages(st *stats.Stats) int {
	tpp := storage.PageSize / d.RowBytes(st)
	if tpp < 1 {
		tpp = 1
	}
	return (st.NumRows() + tpp - 1) / tpp
}

// Bytes is the total space charge of the design: heap pages, plus the PK
// secondary index for fact re-clusterings. (CMs are budgeted separately,
// §5.4.)
func (d *MVDesign) Bytes(st *stats.Stats) int64 {
	n := int64(d.NumPages(st)) * storage.PageSize
	if d.FactOverlay {
		n = 0 // the fact heap already exists; only the structure is new space
	}
	if d.FactRecluster && len(d.PKCols) > 0 {
		n += btree.EstimateBytes(st.NumRows(), st.Rel.Schema.SubsetBytes(d.PKCols))
	}
	for _, spec := range d.CorrIdxs {
		outRows := int(spec.EstOutlierFrac * float64(st.NumRows()))
		n += corridx.EstimateBytes(spec.EstEntries, outRows, st.Rel.Schema.Columns[spec.Target].ByteSize)
	}
	return n
}

// Height is the clustered B+Tree path length of the design.
func (d *MVDesign) Height(st *stats.Stats) int {
	kb := st.Rel.Schema.SubsetBytes(d.ClusterKey)
	if kb == 0 {
		kb = 8
	}
	return btree.EstimateHeight(d.NumPages(st), kb)
}

// Key returns a canonical identity string: columns + clustered key +
// fact-recluster flag. Two candidates with equal keys are the same design.
func (d *MVDesign) Key() string {
	b := make([]byte, 0, 2*(len(d.Cols)+len(d.ClusterKey))+1)
	for _, c := range d.Cols {
		b = append(b, byte(c), byte(c>>8))
	}
	b = append(b, 0xff)
	for _, c := range d.ClusterKey {
		b = append(b, byte(c), byte(c>>8))
	}
	if d.FactRecluster {
		b = append(b, 0xfe)
	}
	if d.FactOverlay {
		b = append(b, 0xfc)
	}
	for _, spec := range d.CorrIdxs {
		// Width gets four bytes: candidate generation doubles it up to 2^20
		// to fit the mapping cap, beyond a 16-bit encoding.
		b = append(b, 0xfd, byte(spec.Target), byte(spec.Target>>8),
			byte(spec.Width), byte(spec.Width>>8), byte(spec.Width>>16), byte(spec.Width>>24))
	}
	return string(b)
}

// String renders the design for diagnostics.
func (d *MVDesign) String() string {
	return fmt.Sprintf("%s{cols=%v key=%v fact=%v}", d.Name, d.Cols, d.ClusterKey, d.FactRecluster)
}

// Model prices a query on a hypothetical design.
type Model interface {
	// Name identifies the model in experiment output.
	Name() string
	// Estimate returns the predicted runtime in seconds of the cheapest
	// access path for q on d and which path that is. Returns +Inf when the
	// design cannot answer q.
	Estimate(d *MVDesign, q *query.Query) (float64, PathKind)
}

// PathKind is the access path a model assumed.
type PathKind int

const (
	// PathSeqScan is a full heap scan.
	PathSeqScan PathKind = iota
	// PathClustered narrows through predicates on the clustered prefix.
	PathClustered
	// PathCM reaches the heap through a correlation map on predicated
	// unclustered attributes.
	PathCM
	// PathSecondary is a dense B+Tree secondary scan (oblivious model).
	PathSecondary
	// PathCorrIdx translates the predicate through a correlation index into
	// host ranges on the clustered lead.
	PathCorrIdx
	// PathInfeasible means the design cannot answer the query.
	PathInfeasible
)

// String names the path.
func (k PathKind) String() string {
	switch k {
	case PathSeqScan:
		return "seqscan"
	case PathClustered:
		return "clustered"
	case PathCM:
		return "cm"
	case PathSecondary:
		return "secondary"
	case PathCorrIdx:
		return "corridx"
	case PathInfeasible:
		return "infeasible"
	default:
		return fmt.Sprintf("path(%d)", int(k))
	}
}

// prefixWalk computes (fragments, usedPreds) for the clustered-prefix
// access path shared by both models: descend the clustered key while
// predicates allow — equality continues, IN multiplies fragments by its
// value count and continues, range stops after narrowing, a missing
// predicate stops.
func prefixWalk(st *stats.Stats, d *MVDesign, q *query.Query) (fragments float64, used []*query.Predicate) {
	fragments = 1
	for _, c := range d.ClusterKey {
		p := q.Predicate(st.Rel.Schema.Columns[c].Name)
		if p == nil {
			break
		}
		used = append(used, p)
		switch p.Op {
		case query.Eq:
			// one contiguous run per enclosing run
		case query.In:
			n := float64(len(p.Set))
			if dc := st.Distinct(c); dc < n {
				n = dc
			}
			fragments *= n
		case query.Range:
			return fragments, used
		}
	}
	return fragments, used
}
