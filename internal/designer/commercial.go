package designer

import (
	"fmt"
	"sort"

	"coradd/internal/btree"
	"coradd/internal/candgen"
	"coradd/internal/costmodel"
	"coradd/internal/ilp"
	"coradd/internal/par"
	"coradd/internal/query"
)

// Commercial models a state-of-the-art conventional designer in the
// Agrawal / Chaudhuri-Narasayya mold (§2.2, §7): dedicated per-query MVs,
// pairwise index merging by concatenation only, fact-table re-clusterings,
// dense B+Tree secondary indexes on predicated attributes, all priced with
// the correlation-oblivious cost model and selected by Greedy(m,k). Its
// blind spot — fragment counts that depend on correlation with the
// clustered key — is exactly what Figure 10 measures.
type Commercial struct {
	Common
	Model *costmodel.Oblivious
	Gen   *candgen.Generator
	// SeedM is Greedy(m,k)'s exhaustive seed size (the paper uses m=2).
	SeedM int
	// MaxObjects is Greedy's k; 0 means unlimited.
	MaxObjects int

	cands []commercialCand
	base  []float64
}

// commercialCand pairs a design with the secondary indexes the tool would
// build on it, whose size is part of the candidate's space charge.
type commercialCand struct {
	design *costmodel.MVDesign
	// idxCols are the columns getting dense B+Tree secondary indexes.
	idxCols []int
	// idxBytes is their total size.
	idxBytes int64
}

// NewCommercial builds the baseline designer and its candidate pool.
func NewCommercial(c Common, cfg candgen.Config) *Commercial {
	model := costmodel.NewOblivious(c.St, c.Disk)
	// Reuse candgen's dedicated-key machinery, but with the oblivious model
	// so key ranking matches what the tool believes.
	gen := candgen.New(c.St, model, c.W, cfg)
	gen.PKCols = c.PKCols
	d := &Commercial{Common: c, Model: model, Gen: gen, SeedM: 2}
	d.cands = d.generate()
	d.base = d.baseTimes(model)
	return d
}

// Name implements Designer.
func (d *Commercial) Name() string { return "Commercial" }

// NumCandidates reports the candidate pool size.
func (d *Commercial) NumCandidates() int { return len(d.cands) }

// generate enumerates the baseline's candidates: dedicated MVs, pairwise
// concatenation merges, and single-attribute fact re-clusterings.
func (d *Commercial) generate() []commercialCand {
	var out []commercialCand
	seen := map[string]bool{}
	add := func(md *costmodel.MVDesign) {
		if md == nil || len(md.ClusterKey) == 0 {
			return
		}
		if seen[md.Key()] {
			return
		}
		seen[md.Key()] = true
		out = append(out, d.withIndexes(md))
	}
	// Dedicated MV per query.
	dedicated := make([][]int, len(d.W))
	for qi := range d.W {
		grp := []int{qi}
		cols := d.Gen.GroupCols(grp)
		key := d.Gen.DedicatedKey(d.W[qi])
		key = intersect(key, cols)
		dedicated[qi] = key
		add(&costmodel.MVDesign{
			Name: fmt.Sprintf("com_dedicated_%s", d.W[qi].Name), Cols: cols,
			ClusterKey: key, Queries: grp,
		})
	}
	// Pairwise merges, concatenation only (index merging, [6]).
	for a := 0; a < len(d.W); a++ {
		for b := a + 1; b < len(d.W); b++ {
			grp := []int{a, b}
			cols := d.Gen.GroupCols(grp)
			ka := intersect(dedicated[a], cols)
			kb := removeInts(intersect(dedicated[b], cols), ka)
			key := append(append([]int(nil), ka...), kb...)
			if len(key) > 8 {
				key = key[:8]
			}
			add(&costmodel.MVDesign{
				Name: fmt.Sprintf("com_merge_%s_%s", d.W[a].Name, d.W[b].Name),
				Cols: cols, ClusterKey: key, Queries: grp,
			})
		}
	}
	// Fact re-clusterings on single predicated attributes.
	for _, md := range d.Gen.FactReclusterings() {
		if len(md.ClusterKey) == 1 {
			add(md)
		}
	}
	return out
}

// withIndexes attaches dense secondary indexes on every attribute
// predicated by the candidate's queries that is not the clustered lead.
func (d *Commercial) withIndexes(md *costmodel.MVDesign) commercialCand {
	lead := -1
	if len(md.ClusterKey) > 0 {
		lead = md.ClusterKey[0]
	}
	colSet := map[int]bool{}
	queries := md.Queries
	if md.FactRecluster {
		queries = allQueryIndexes(d.W)
	}
	for _, qi := range queries {
		for i := range d.W[qi].Predicates {
			c := d.St.Rel.Schema.Col(d.W[qi].Predicates[i].Col)
			if c >= 0 && c != lead && md.HasCol(c) {
				colSet[c] = true
			}
		}
	}
	cand := commercialCand{design: md}
	cols := make([]int, 0, len(colSet))
	for c := range colSet {
		cols = append(cols, c)
	}
	sort.Ints(cols)
	for _, c := range cols {
		cand.idxCols = append(cand.idxCols, c)
		cand.idxBytes += btree.EstimateBytes(d.St.NumRows(), d.St.Rel.Schema.Columns[c].ByteSize)
	}
	return cand
}

// Design implements Designer: price, prune, Greedy(m,k).
func (d *Commercial) Design(budget int64) (*Design, error) {
	if len(d.W) == 0 {
		return nil, fmt.Errorf("designer: empty workload")
	}
	cands := make([]ilp.Candidate, len(d.cands))
	designs := make([]*costmodel.MVDesign, len(d.cands))
	weights := make([]float64, len(d.W))
	for qi, q := range d.W {
		weights[qi] = q.EffectiveWeight()
	}
	// Candidate pricing fans out across the worker pool: each candidate's
	// estimates are independent and the oblivious model is race-safe, so
	// the slot-per-candidate results match a sequential loop's exactly.
	par.ForEach(len(d.cands), func(i int) {
		cc := d.cands[i]
		times := make([]float64, len(d.W))
		for qi, q := range d.W {
			t, _ := d.Model.Estimate(cc.design, q)
			times[qi] = t
		}
		fg := 0
		if cc.design.FactRecluster {
			fg = 1 // the one fact table's exclusion group
		}
		cands[i] = ilp.Candidate{
			Name: cc.design.Name, Size: cc.design.Bytes(d.St) + cc.idxBytes,
			Times: times, FactGroup: fg, Ref: cc.design,
		}
		designs[i] = cc.design
	})
	kept, origIdx := ilp.PruneDominated(cands)
	keptDesigns := make([]*costmodel.MVDesign, len(kept))
	for i, oi := range origIdx {
		keptDesigns[i] = designs[oi]
	}
	prob := &ilp.Problem{Cands: kept, Base: d.base, Weights: weights, Budget: budget}
	k := d.MaxObjects
	if k <= 0 {
		k = len(kept)
	}
	sol := ilp.Greedy(prob, d.SeedM, k)
	return routedDesign(d.Name(), StyleCommercial, &d.Common, d.Model, budget, keptDesigns, sol), nil
}

// SecondaryIndexCols returns the secondary-index columns the tool would
// build on the given chosen design (used at materialization time).
func (d *Commercial) SecondaryIndexCols(md *costmodel.MVDesign) []int {
	for _, cc := range d.cands {
		if cc.design == md {
			return cc.idxCols
		}
	}
	// Routing may hand us the base design: index predicated attributes.
	return d.withIndexes(md).idxCols
}

func intersect(key []int, cols []int) []int {
	set := map[int]bool{}
	for _, c := range cols {
		set[c] = true
	}
	var out []int
	for _, c := range key {
		if set[c] {
			out = append(out, c)
		}
	}
	return out
}

func removeInts(s, drop []int) []int {
	set := map[int]bool{}
	for _, c := range drop {
		set[c] = true
	}
	var out []int
	for _, c := range s {
		if !set[c] {
			out = append(out, c)
		}
	}
	return out
}

func allQueryIndexes(w query.Workload) []int {
	out := make([]int, len(w))
	for i := range out {
		out[i] = i
	}
	return out
}
