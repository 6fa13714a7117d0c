package candgen

import (
	"encoding/binary"
	"slices"
	"sort"

	"coradd/internal/costmodel"
	"coradd/internal/par"
	"coradd/internal/query"
	"coradd/internal/stats"
)

// DesignClusterings returns up to t clustered-key designs for the group,
// ranked by expected total runtime of the group's queries on an MV with
// the given columns (§4.2). For one query this is its dedicated key; for
// larger groups the dedicated keys are merged pairwise through the
// recursive split/merge procedure of Figure 3, exploring both
// concatenation and order-preserving interleaving (Figure 4). The keys
// are shared with the generator's memo: callers must not modify them.
func (g *Generator) DesignClusterings(group []int, cols []int, t int) [][]int {
	if t < 1 {
		t = 1
	}
	if len(group) == 0 {
		return nil
	}
	return slices.Clone(g.clusterRec(group, cols, t))
}

// clusterRec is the split/recurse/merge/prune step, memoized by (group,
// cols, t): its result depends only on the generator's fixed W, St, Model
// and Cfg, and feedback expansions, budgets and overlapping groups ask for
// the same sub-searches again and again.
func (g *Generator) clusterRec(group []int, cols []int, t int) [][]int {
	mk := clusterMemoKey(group, cols, t)
	if keys, ok := g.clusterMem[mk]; ok {
		return keys
	}
	keys := g.clusterSearch(group, cols, t)
	if g.clusterMem == nil {
		g.clusterMem = make(map[string][][]int)
	}
	g.clusterMem[mk] = keys
	return keys
}

// clusterMemoKey encodes (group, cols, t) as one string.
func clusterMemoKey(group []int, cols []int, t int) string {
	b := make([]byte, 0, len(group)+len(cols)+4)
	for _, s := range [][]int{group, cols, {t}} {
		b = binary.AppendUvarint(b, uint64(len(s)))
		for _, v := range s {
			b = binary.AppendUvarint(b, uint64(v))
		}
	}
	return string(b)
}

// clusterSearch computes clusterRec's keys.
func (g *Generator) clusterSearch(group []int, cols []int, t int) [][]int {
	if len(group) == 1 {
		k := g.DedicatedKey(g.W[group[0]])
		k = g.truncateKey(k, cols)
		if len(k) == 0 {
			return nil
		}
		return [][]int{k}
	}
	mid := len(group) / 2
	left := g.clusterRec(group[:mid], cols, t)
	right := g.clusterRec(group[mid:], cols, t)
	if len(left) == 0 {
		return g.pruneKeys(group, cols, right, t)
	}
	if len(right) == 0 {
		return g.pruneKeys(group, cols, left, t)
	}
	var merged [][]int
	for _, a := range left {
		for _, b := range right {
			merged = append(merged, g.MergeKeys(a, b)...)
		}
	}
	merged = append(merged, left...)
	merged = append(merged, right...)
	return g.pruneKeys(group, cols, merged, t)
}

// DedicatedKey builds the optimal single-query clustered key (§4.2): the
// predicated attributes ordered by predicate type (equality, range, IN)
// and within a type by ascending propagated selectivity — the ordering
// least likely to fragment the access pattern.
func (g *Generator) DedicatedKey(q *query.Query) []int {
	return DedicatedKey(g.St, q)
}

// DedicatedKey is the standalone form: it needs only the statistics.
// DedicatedMV shares it so the ordering rule lives in exactly one place.
func DedicatedKey(st *stats.Stats, q *query.Query) []int {
	v := st.PropagatedVector(q)
	type attr struct {
		col    int
		opRank int
		sel    float64
	}
	var attrs []attr
	for i := range q.Predicates {
		p := &q.Predicates[i]
		c := st.Rel.Schema.Col(p.Col)
		if c < 0 {
			continue
		}
		rank := 0
		switch p.Op {
		case query.Eq:
			rank = 0
		case query.Range:
			rank = 1
		case query.In:
			rank = 2
		}
		attrs = append(attrs, attr{col: c, opRank: rank, sel: v.Sel[c]})
	}
	sort.SliceStable(attrs, func(i, j int) bool {
		if attrs[i].opRank != attrs[j].opRank {
			return attrs[i].opRank < attrs[j].opRank
		}
		if attrs[i].sel != attrs[j].sel {
			return attrs[i].sel < attrs[j].sel
		}
		return attrs[i].col < attrs[j].col
	})
	out := make([]int, len(attrs))
	for i, a := range attrs {
		out[i] = a.col
	}
	return out
}

// DedicatedMV is the best single object for one query, the adaptive
// monitor's lower bound: exactly its columns, clustered on its dedicated
// key. Nil when q names no column of st's fact relation.
func DedicatedMV(st *stats.Stats, q *query.Query) *costmodel.MVDesign {
	var cols []int
	for _, name := range q.AllColumns() {
		if p := st.Rel.Schema.Col(name); p >= 0 {
			cols = append(cols, p)
		}
	}
	if len(cols) == 0 {
		return nil
	}
	sort.Ints(cols)
	key := DedicatedKey(st, q)
	if len(key) == 0 {
		key = cols[:1]
	}
	return &costmodel.MVDesign{Name: "lb(" + q.Name + ")", Cols: cols, ClusterKey: key}
}

// MergeKeys merges two clustered keys, returning concatenations in both
// orders plus order-preserving interleavings (Figure 4). Attributes present
// in both keys are kept at their position in the first sequence and dropped
// from the second. The enumeration is capped at Cfg.MaxInterleavings.
func (g *Generator) MergeKeys(a, b []int) [][]int {
	b2 := removeAll(b, a)
	a2 := removeAll(a, b)
	var out [][]int
	// Concatenations (the only merges prior work [6] considers).
	out = append(out, concat(a, b2), concat(b, a2))
	if g.Cfg.ConcatOnly {
		return dedupKeys(out)
	}
	// Order-preserving interleavings of a and b2.
	limit := g.Cfg.MaxInterleavings
	if limit <= 0 {
		limit = 64
	}
	interleave(a, b2, nil, &out, limit+2)
	return dedupKeys(out)
}

// interleave appends order-preserving merges of a and b to out until the
// size limit is reached.
func interleave(a, b, prefix []int, out *[][]int, limit int) {
	if len(*out) >= limit {
		return
	}
	if len(a) == 0 {
		*out = append(*out, concat(prefix, b))
		return
	}
	if len(b) == 0 {
		*out = append(*out, concat(prefix, a))
		return
	}
	interleave(a[1:], b, append(prefix, a[0]), out, limit)
	interleave(a, b[1:], append(prefix, b[0]), out, limit)
}

// pruneKeys applies attribute dropping and length caps to each key,
// deduplicates, scores every key on the group's queries with the cost
// model, and keeps the t best.
func (g *Generator) pruneKeys(group []int, cols []int, keys [][]int, t int) [][]int {
	var cleaned [][]int
	for _, k := range keys {
		k = g.truncateKey(k, cols)
		if len(k) > 0 {
			cleaned = append(cleaned, k)
		}
	}
	cleaned = dedupKeys(cleaned)
	if len(cleaned) <= t {
		return cleaned
	}
	type scored struct {
		key  []int
		cost float64
	}
	// Merge/split scoring fans out across the worker pool: each key's
	// pricing is independent, the cost model is race-safe, and the
	// weighted sum per key stays in group order, so the scores — and the
	// stable sort over them — are identical to a sequential loop's.
	sc := make([]scored, len(cleaned))
	par.ForEach(len(cleaned), func(i int) {
		k := cleaned[i]
		d := &costmodel.MVDesign{Cols: cols, ClusterKey: k}
		total := 0.0
		for _, qi := range group {
			c, _ := g.Model.Estimate(d, g.W[qi])
			total += g.W[qi].EffectiveWeight() * c
		}
		sc[i] = scored{k, total}
	})
	sort.SliceStable(sc, func(i, j int) bool { return sc[i].cost < sc[j].cost })
	out := make([][]int, 0, t)
	for i := 0; i < t && i < len(sc); i++ {
		out = append(out, sc[i].key)
	}
	return out
}

// truncateKey drops trailing key attributes once the leading prefix's
// distinct count exceeds the page limit (further attributes cannot improve
// clustering) and enforces MaxKeyLen. Attributes not carried by the MV are
// removed.
func (g *Generator) truncateKey(key []int, cols []int) []int {
	maxLen := g.Cfg.MaxKeyLen
	if maxLen <= 0 {
		maxLen = 8
	}
	limit := g.pageLimit(cols)
	colSet := make(map[int]bool, len(cols))
	for _, c := range cols {
		colSet[c] = true
	}
	var out []int
	for _, c := range key {
		if !colSet[c] || containsInt(out, c) {
			continue
		}
		out = append(out, c)
		if len(out) >= maxLen {
			break
		}
		if g.St.Distinct(out...) >= limit {
			break
		}
	}
	return out
}

func concat(a, b []int) []int {
	out := make([]int, 0, len(a)+len(b))
	out = append(out, a...)
	out = append(out, b...)
	return out
}

// removeAll returns the elements of b not present in a, preserving order.
func removeAll(b, a []int) []int {
	set := make(map[int]bool, len(a))
	for _, x := range a {
		set[x] = true
	}
	var out []int
	for _, x := range b {
		if !set[x] {
			out = append(out, x)
		}
	}
	return out
}

func dedupKeys(keys [][]int) [][]int {
	seen := make(map[string]bool, len(keys))
	var out [][]int
	for _, k := range keys {
		b := make([]byte, 0, len(k)*2)
		for _, c := range k {
			b = append(b, byte(c), byte(c>>8))
		}
		if seen[string(b)] {
			continue
		}
		seen[string(b)] = true
		out = append(out, k)
	}
	return out
}

func containsInt(s []int, v int) bool {
	for _, x := range s {
		if x == v {
			return true
		}
	}
	return false
}
