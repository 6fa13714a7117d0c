package costmodel

import (
	"coradd/internal/btree"
	"coradd/internal/query"
	"coradd/internal/stats"
	"coradd/internal/storage"
)

// Oblivious is the correlation-oblivious cost model conventional designers
// use — "the commercial cost model predicts the same query cost for all
// clustered index settings, ignoring the effect of correlations" (Figure
// 10). It estimates selectivities by multiplying per-predicate histogram
// selectivities (attribute-value independence) and prices secondary-index
// access as if the matching tuples were contiguous in the heap: the cost of
// a secondary plan is the same whatever the clustered key is. When the
// clustered key happens to be correlated with the predicates the model
// overestimates; when it is not, it underestimates dramatically — the
// factor-25 error the paper measures.
type Oblivious struct {
	St   *stats.Stats
	Disk storage.DiskParams
}

// NewOblivious builds the model over st.
func NewOblivious(st *stats.Stats, disk storage.DiskParams) *Oblivious {
	return &Oblivious{St: st, Disk: disk}
}

// Name implements Model.
func (m *Oblivious) Name() string { return "correlation-oblivious" }

// Estimate implements Model.
func (m *Oblivious) Estimate(d *MVDesign, q *query.Query) (float64, PathKind) {
	if !d.Covers(m.St, q) {
		return inf(), PathInfeasible
	}
	pages := float64(d.NumPages(m.St))
	height := float64(d.Height(m.St))
	seek, read := m.Disk.SeekCost, m.Disk.PageReadCost

	best := seek + pages*read // sequential scan
	kind := PathSeqScan

	// Clustered-prefix path: conventional models do understand clustered
	// ranges; coverage comes from independent per-predicate selectivities.
	if len(d.ClusterKey) > 0 {
		frags, used := prefixWalk(m.St, d, q)
		if len(used) > 0 {
			coverage := 1.0
			for _, p := range used {
				coverage *= m.St.PredicateSelectivity(p)
			}
			c := frags*height*seek + coverage*pages*read
			if c < best {
				best, kind = c, PathClustered
			}
		}
	}

	// Secondary B+Tree path on the most selective predicated non-prefix
	// attribute, priced as if matching tuples were contiguous: one descent,
	// then selectivity × heap pages read sequentially — flat across
	// clusterings.
	if c, ok := m.secondaryCost(d, q, pages, height); ok && c < best {
		best, kind = c, PathSecondary
	}
	return best, kind
}

// secondaryCost prices the oblivious secondary plan. Returns false when no
// predicated attribute is outside the clustered prefix.
func (m *Oblivious) secondaryCost(d *MVDesign, q *query.Query, pages, height float64) (float64, bool) {
	lead := -1
	if len(d.ClusterKey) > 0 {
		lead = d.ClusterKey[0]
	}
	bestSel := 2.0
	found := false
	var keyBytes int
	for i := range q.Predicates {
		p := &q.Predicates[i]
		c := m.St.Rel.Schema.Col(p.Col)
		if c < 0 || c == lead || !d.HasCol(c) {
			continue
		}
		if sel := m.St.PredicateSelectivity(p); sel < bestSel {
			bestSel = sel
			keyBytes = m.St.Rel.Schema.Columns[c].ByteSize
			found = true
		}
	}
	if !found {
		return 0, false
	}
	// Residual selectivity of all predicates combined (independence).
	sel := m.St.QuerySelectivityIndependent(q)
	if sel > bestSel {
		sel = bestSel
	}
	seek, read := m.Disk.SeekCost, m.Disk.PageReadCost
	// Index traversal + leaf range + "contiguous" heap read.
	leafBytes := float64(btree.EstimateBytes(m.St.NumRows(), keyBytes)) * bestSel
	leafPages := leafBytes / float64(storage.PageSize)
	return height*seek + seek + leafPages*read + sel*pages*read, true
}
