package cm

import (
	"slices"
	"sort"

	"coradd/internal/btree"
	"coradd/internal/par"
	"coradd/internal/query"
	"coradd/internal/storage"
	"coradd/internal/value"
)

// DefaultSpaceLimit is the per-CM space budget: "1MB per CM in this paper"
// (A-1.2). CORADD sets aside a small fixed pool for secondary indexes and
// selects MVs independently (§5.4).
const DefaultSpaceLimit = 1 << 20

// DesignerConfig controls the CM Designer search (A-1.2).
type DesignerConfig struct {
	// SpaceLimit is the maximum CM size in bytes.
	SpaceLimit int64
	// Widths are the candidate bucket widths tried for each unclustered key
	// attribute (equi-width bucketings built by truncation).
	Widths []int64
	// MaxKeyCols caps the composite CM key length the exhaustive search
	// considers.
	MaxKeyCols int
	// ClusterPagesPerBucket is the fixed clustered bucketing width.
	ClusterPagesPerBucket int
	// Disk converts I/O into seconds when ranking candidates.
	Disk storage.DiskParams
}

// DefaultDesignerConfig returns the configuration the paper describes.
func DefaultDesignerConfig() DesignerConfig {
	return DesignerConfig{
		SpaceLimit:            DefaultSpaceLimit,
		Widths:                []int64{1, 2, 4, 8, 16, 64},
		MaxKeyCols:            2,
		ClusterPagesPerBucket: DefaultClusterPagesPerBucket,
		Disk:                  storage.DefaultDiskParams(),
	}
}

// Design picks the fastest CM for query q on relation rel within the space
// limit, trying every composite key (up to MaxKeyCols attributes) over the
// query's predicated attributes that are not already a prefix of rel's
// clustered key, and every bucketing width per attribute. Returns nil when
// no CM helps (e.g. all predicates already on the clustered prefix, or
// nothing fits the limit).
func Design(rel *storage.Relation, q *query.Query, cfg DesignerConfig) *CM {
	cands := candidateKeyCols(rel, q, cfg.MaxKeyCols)
	if len(cands) == 0 {
		return nil
	}
	height := btree.EstimateHeight(rel.NumPages(), rel.Schema.SubsetBytes(rel.ClusterKey))
	scanCost := seqScanCost(rel, cfg.Disk)
	// Every key set no larger candidate contains is built by one relation
	// scan; every other key set's exact CM is then projected from the
	// pairs of the smallest exact CM that contains it. Each exact CM's
	// coarser widths are derived from its pairs; all are identical to a
	// fresh Build. Scans, then projections, fan out as independent units,
	// each through one pair kernel whose buffers its sweep reuses.
	// Per-key-set winners land in their own slot; the final reduction
	// scans slots in enumeration order with the same strict comparison a
	// sequential sweep applies, so the chosen CM is identical.
	type slot struct {
		best *CM
		cost float64
	}
	slots := make([]slot, len(cands))
	sweep := func(pk *pairKernel, i int, base *CM) {
		slots[i].cost = scanCost
		// Each width derives from the previous one when that divides it
		// (1, 2, 4, 8, 16, 64 chain all the way), else from the exact base:
		// the coarser the source, the fewer pairs to re-bucket.
		prev := base
		for _, widths := range widthGrid(len(base.KeyCols), cfg.Widths) {
			m := base
			if !allOnes(widths) {
				from := base
				if divides(prev.KeyWidths, widths) {
					from = prev
				}
				m = pk.derive(from, identity(len(widths)), widths, base.keyBytes)
			}
			prev = m
			if m.Bytes() > cfg.SpaceLimit {
				continue
			}
			c := lookupCost(rel, m, q, height, cfg.Disk)
			if c < slots[i].cost {
				slots[i].cost = c
				slots[i].best = m
			}
		}
	}
	scanned, projected := scanSets(cands)
	bases := make([]*CM, len(cands))
	par.ForEach(len(scanned), func(u int) {
		var pk pairKernel
		i := scanned[u]
		bases[i] = pk.build(rel, cands[i], ones(len(cands[i])), cfg.ClusterPagesPerBucket)
		sweep(&pk, i, bases[i])
	})
	par.ForEach(len(projected), func(u int) {
		i := projected[u]
		var from *CM
		for _, j := range scanned {
			if within(cands[i], cands[j]) && (from == nil || bases[j].NumPairs() < from.NumPairs()) {
				from = bases[j]
			}
		}
		sel := make([]int, len(cands[i]))
		for j, c := range cands[i] {
			sel[j] = slices.Index(from.KeyCols, c)
		}
		var pk pairKernel
		sweep(&pk, i, pk.derive(from, sel, ones(len(sel)), rel.Schema.SubsetBytes(cands[i])))
	})
	var best *CM
	bestCost := scanCost
	for i := range slots {
		if slots[i].best != nil && slots[i].cost < bestCost {
			bestCost = slots[i].cost
			best = slots[i].best
		}
	}
	return best
}

// scanSets splits the candidate key sets (sorted column lists) into those
// no larger candidate contains, built by a row scan, and the others,
// projected from one of those, each in enumeration order.
func scanSets(cands [][]int) (scanned, projected []int) {
	for i, c := range cands {
		if slices.ContainsFunc(cands, func(d []int) bool { return within(c, d) }) {
			projected = append(projected, i)
		} else {
			scanned = append(scanned, i)
		}
	}
	return scanned, projected
}

// within reports whether key set c is a proper subset of key set d.
func within(c, d []int) bool {
	return len(c) < len(d) && !slices.ContainsFunc(c, func(col int) bool { return !slices.Contains(d, col) })
}

// ones returns n widths of 1, the exact bucketing.
func ones(n int) []value.V {
	ws := make([]value.V, n)
	for j := range ws {
		ws[j] = 1
	}
	return ws
}

// divides reports whether every width in from divides its counterpart in
// to (a width ≤ 1 is exact and divides everything).
func divides(from, to []value.V) bool {
	for j, w := range from {
		if w > 1 && (to[j] < w || to[j]%w != 0) {
			return false
		}
	}
	return true
}

func allOnes(widths []value.V) bool {
	for _, w := range widths {
		if w != 1 {
			return false
		}
	}
	return true
}

// candidateKeyCols enumerates composite key column sets of size 1..max over
// the query's predicated attributes present in rel and not equal to the
// first clustered attribute (a predicate there is served by the clustered
// index directly).
func candidateKeyCols(rel *storage.Relation, q *query.Query, max int) [][]int {
	var cols []int
	lead := -1
	if len(rel.ClusterKey) > 0 {
		lead = rel.ClusterKey[0]
	}
	for i := range q.Predicates {
		c := rel.Schema.Col(q.Predicates[i].Col)
		if c < 0 || c == lead {
			continue
		}
		cols = append(cols, c)
	}
	sort.Ints(cols)
	var out [][]int
	// size-1 sets
	for _, c := range cols {
		out = append(out, []int{c})
	}
	if max >= 2 {
		for i := 0; i < len(cols); i++ {
			for j := i + 1; j < len(cols); j++ {
				out = append(out, []int{cols[i], cols[j]})
			}
		}
	}
	return out
}

// widthGrid enumerates width assignments for n key columns. To keep the
// exhaustive search bounded for composite keys, all columns share one width
// from the grid when n > 1 (single-column keys sweep the full grid).
func widthGrid(n int, widths []int64) [][]int64 {
	var out [][]int64
	for _, w := range widths {
		ws := make([]int64, n)
		for i := range ws {
			ws[i] = w
		}
		out = append(out, ws)
	}
	return out
}

// lookupCost estimates the runtime of answering q through m: read the CM,
// then for each merged clustered fragment pay height seeks plus the
// fragment's sequential pages.
func lookupCost(rel *storage.Relation, m *CM, q *query.Query, height int, disk storage.DiskParams) float64 {
	preds := make([]*query.Predicate, len(m.KeyCols))
	for i, c := range m.KeyCols {
		preds[i] = q.Predicate(rel.Schema.Columns[c].Name)
	}
	ranges := m.PageRanges(m.Buckets(preds))
	seeks := 1 + len(ranges)*height
	pages := m.Pages()
	for _, r := range ranges {
		pages += r[1] - r[0]
	}
	return float64(seeks)*disk.SeekCost + float64(pages)*disk.PageReadCost
}

func seqScanCost(rel *storage.Relation, disk storage.DiskParams) float64 {
	return disk.SeekCost + float64(rel.NumPages())*disk.PageReadCost
}
