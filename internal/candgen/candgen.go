// Package candgen implements the MV Candidate Generator (§4): it groups
// workload queries by the similarity of their propagated selectivity
// vectors (extended with α-weighted target-attribute elements), designs
// clustered indexes for each group by recursive split/merge with both
// concatenated and interleaved key merging, adds fact-table re-clustering
// candidates, and emits deduplicated MV candidates for the ILP solver.
package candgen

import (
	"fmt"
	"math/rand"
	"sort"

	"coradd/internal/costmodel"
	"coradd/internal/kmeans"
	"coradd/internal/query"
	"coradd/internal/stats"
	"coradd/internal/storage"
)

// Config tunes candidate generation.
type Config struct {
	// Alphas are the target-attribute weights swept during grouping
	// (§4.1.3); the paper uses several values in [0, 0.5].
	Alphas []float64
	// T is the number of clusterings kept per query group (§4.2); ILP
	// feedback later re-runs with larger values.
	T int
	// MaxKeyLen caps clustered-key length ("7 or 8 in practice").
	MaxKeyLen int
	// MaxInterleavings caps the order-preserving interleavings enumerated
	// per merge (the full count is binomial).
	MaxInterleavings int
	// ConcatOnly restricts merging to concatenation, the prior-work
	// behaviour ([6]) the paper's §4.2 ablation compares against
	// ("designs up to 90% slower").
	ConcatOnly bool
	// Restarts is the number of k-means restarts per (α, k).
	Restarts int
	// Seed makes grouping deterministic.
	Seed int64
	// CorrIdx additionally emits correlation-index candidates
	// (internal/corridx): succinct secondary indexes that translate
	// predicates into host-column ranges through learned correlations. Off
	// by default so the paper's candidate pool is unchanged.
	CorrIdx bool
}

// DefaultConfig returns the paper's settings.
func DefaultConfig() Config {
	return Config{
		Alphas:           []float64{0, 0.1, 0.25, 0.5},
		T:                2,
		MaxKeyLen:        8,
		MaxInterleavings: 64,
		Restarts:         3,
		Seed:             1,
	}
}

// Generator produces MV candidates for one fact table's workload. St,
// Model, W and Cfg must not change once it has designed a clustering: its
// memos assume them fixed. A Generator is not safe for concurrent use.
type Generator struct {
	St    *stats.Stats
	Model costmodel.Model
	W     query.Workload
	Cfg   Config
	// PKCols are the fact table's primary-key columns (charged as an extra
	// secondary index on re-clustered designs, §4.3).
	PKCols []int

	vectors   [][]float64 // propagated selectivity vectors, one per query
	nameSeq   int
	distLimit map[string]float64
	corrMem   map[[2]int]corrStat       // (host, target) → corridx quality
	synMem    map[int]*storage.Relation // host → host-sorted synopsis
	// clusterMem maps (group, cols, t) to the §4.2 clustering search's
	// keys (clusterRec); the cached slices are read-only.
	clusterMem map[string][][]int
}

// New builds a generator. All queries in w must target the same fact table
// described by st.
func New(st *stats.Stats, model costmodel.Model, w query.Workload, cfg Config) *Generator {
	g := &Generator{St: st, Model: model, W: w, Cfg: cfg}
	g.vectors = make([][]float64, len(w))
	for i, q := range w {
		g.vectors[i] = st.PropagatedVector(q).Sel
	}
	return g
}

// Generate runs the full §4 pipeline and returns deduplicated candidates.
func (g *Generator) Generate() []*costmodel.MVDesign {
	groups := g.QueryGroups()
	seen := make(map[string]bool)
	var out []*costmodel.MVDesign
	add := func(d *costmodel.MVDesign) {
		if d == nil {
			return
		}
		k := d.Key()
		if seen[k] {
			return
		}
		seen[k] = true
		out = append(out, d)
	}
	for _, grp := range groups {
		for _, d := range g.GroupDesigns(grp, g.Cfg.T) {
			add(d)
			if g.Cfg.CorrIdx {
				for _, v := range g.corrIdxVariants(d, grp) {
					add(v)
				}
			}
		}
	}
	for _, d := range g.FactReclusterings() {
		add(d)
	}
	if g.Cfg.CorrIdx {
		for _, d := range g.CorrIdxCandidates() {
			add(d)
		}
	}
	return out
}

// QueryGroups runs k-means over the extended selectivity vectors for every
// α and every k from 1 to |Q|, returning the union of distinct groups
// (each a sorted slice of query indexes). The sweep is sequential: every
// (α, k) cell draws from one RNG stream seeded with Cfg.Seed, in iteration
// order, so the groupings are a function of the seed alone.
func (g *Generator) QueryGroups() [][]int {
	rng := rand.New(rand.NewSource(g.Cfg.Seed))
	seen := make(map[string]bool)
	var out [][]int
	for _, alpha := range g.Cfg.Alphas {
		vecs := g.extendedVectors(alpha)
		for k := 1; k <= len(g.W); k++ {
			res := kmeans.Run(vecs, k, rng, g.Cfg.Restarts)
			for _, grp := range res.Groups() {
				grp = append([]int(nil), grp...)
				sort.Ints(grp)
				if key := fmt.Sprint(grp); !seen[key] {
					seen[key] = true
					out = append(out, grp)
				}
			}
		}
	}
	return out
}

// extendedVectors appends the α-weighted target-attribute elements
// (bytesize(attr)·α when the query uses attr, else 0) to each propagated
// selectivity vector (§4.1.3).
func (g *Generator) extendedVectors(alpha float64) [][]float64 {
	ncols := len(g.St.Rel.Schema.Columns)
	out := make([][]float64, len(g.W))
	for i, q := range g.W {
		v := make([]float64, ncols*2)
		copy(v, g.vectors[i])
		if alpha > 0 {
			for _, name := range q.AllColumns() {
				c := g.St.Rel.Schema.Col(name)
				if c < 0 {
					continue
				}
				v[ncols+c] = float64(g.St.Rel.Schema.Columns[c].ByteSize) * alpha
			}
		}
		out[i] = v
	}
	return out
}

// GroupCols returns the sorted base-column positions an MV for the group
// must carry: the union of all attributes its queries use.
func (g *Generator) GroupCols(group []int) []int {
	set := make(map[int]bool)
	for _, qi := range group {
		for _, name := range g.W[qi].AllColumns() {
			if c := g.St.Rel.Schema.Col(name); c >= 0 {
				set[c] = true
			}
		}
	}
	cols := make([]int, 0, len(set))
	for c := range set {
		cols = append(cols, c)
	}
	sort.Ints(cols)
	return cols
}

// GroupDesigns produces up to t MV candidates for a query group: the
// group's column set paired with its t best clustered keys.
func (g *Generator) GroupDesigns(group []int, t int) []*costmodel.MVDesign {
	cols := g.GroupCols(group)
	keys := g.DesignClusterings(group, cols, t)
	out := make([]*costmodel.MVDesign, 0, len(keys))
	for _, key := range keys {
		g.nameSeq++
		out = append(out, &costmodel.MVDesign{
			Name:       fmt.Sprintf("mv%d_q%v", g.nameSeq, group),
			Cols:       cols,
			ClusterKey: key,
			Queries:    append([]int(nil), group...),
		})
	}
	return out
}

// FactReclusterings enumerates re-clustering candidates for the fact table
// (§4.3): one per predicated attribute, plus the t best merged keys over
// the whole workload. Each carries all fact columns and the extra PK
// secondary index charge.
func (g *Generator) FactReclusterings() []*costmodel.MVDesign {
	ncols := len(g.St.Rel.Schema.Columns)
	allCols := make([]int, ncols)
	for i := range allCols {
		allCols[i] = i
	}
	seen := make(map[string]bool)
	var out []*costmodel.MVDesign
	add := func(key []int, label string) {
		if len(key) == 0 {
			return
		}
		d := &costmodel.MVDesign{
			Name:          label,
			Cols:          allCols,
			ClusterKey:    key,
			FactRecluster: true,
			PKCols:        g.PKCols,
		}
		if seen[d.Key()] {
			return
		}
		seen[d.Key()] = true
		out = append(out, d)
	}
	// Single-attribute re-clusterings on every predicated column.
	predCols := make(map[int]bool)
	for _, q := range g.W {
		for i := range q.Predicates {
			if c := g.St.Rel.Schema.Col(q.Predicates[i].Col); c >= 0 {
				predCols[c] = true
			}
		}
	}
	cols := make([]int, 0, len(predCols))
	for c := range predCols {
		cols = append(cols, c)
	}
	sort.Ints(cols)
	for _, c := range cols {
		g.nameSeq++
		add([]int{c}, fmt.Sprintf("fact%d_on_%s", g.nameSeq, g.St.Rel.Schema.Columns[c].Name))
	}
	// Merged keys over the whole workload.
	all := make([]int, len(g.W))
	for i := range all {
		all[i] = i
	}
	for _, key := range g.DesignClusterings(all, allCols, g.Cfg.T) {
		g.nameSeq++
		add(key, fmt.Sprintf("fact%d_merged", g.nameSeq))
	}
	return out
}

// pageLimit returns the distinct-count threshold beyond which further key
// attributes stop being useful: once the leading prefix already has about
// one distinct value per heap page, deeper attributes cannot improve
// clustering (§4.2 attribute dropping).
func (g *Generator) pageLimit(cols []int) float64 {
	rowBytes := g.St.Rel.Schema.SubsetBytes(cols)
	tpp := storage.PageSize / rowBytes
	if tpp < 1 {
		tpp = 1
	}
	pages := float64(g.St.NumRows()) / float64(tpp)
	if pages < 1 {
		pages = 1
	}
	return pages
}
