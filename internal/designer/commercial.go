package designer

import (
	"fmt"
	"maps"
	"slices"

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

	cands []*costmodel.MVDesign
	base  []float64
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
func (d *Commercial) generate() []*costmodel.MVDesign {
	var out []*costmodel.MVDesign
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

// withIndexes records on md a dense secondary B+Tree on every attribute
// predicated by the candidate's queries that is not the clustered lead;
// MVDesign.Bytes charges them and the Evaluator builds them.
func (d *Commercial) withIndexes(md *costmodel.MVDesign) *costmodel.MVDesign {
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
	md.BTreeCols = slices.Sorted(maps.Keys(colSet))
	return md
}

// Design implements Designer: price, prune, Greedy(m,k).
func (d *Commercial) Design(budget int64) (*Design, error) {
	if len(d.W) == 0 {
		return nil, fmt.Errorf("designer: empty workload")
	}
	cands := make([]ilp.Candidate, len(d.cands))
	weights := make([]float64, len(d.W))
	for qi, q := range d.W {
		weights[qi] = q.EffectiveWeight()
	}
	// Candidate pricing fans out across the worker pool: each candidate's
	// estimates are independent and the oblivious model is race-safe, so
	// the slot-per-candidate results match a sequential loop's exactly.
	par.ForEach(len(d.cands), func(i int) {
		md := d.cands[i]
		times := make([]float64, len(d.W))
		for qi, q := range d.W {
			t, _ := d.Model.Estimate(md, q)
			times[qi] = t
		}
		fg := 0
		if md.FactRecluster {
			fg = 1 // the one fact table's exclusion group
		}
		cands[i] = ilp.Candidate{
			Name: md.Name, Size: md.Bytes(d.St),
			Times: times, FactGroup: fg, Ref: md,
		}
	})
	kept, origIdx := ilp.PruneDominated(cands)
	keptDesigns := make([]*costmodel.MVDesign, len(kept))
	for i, oi := range origIdx {
		keptDesigns[i] = d.cands[oi]
	}
	prob := &ilp.Problem{Cands: kept, Base: d.base, Weights: weights, Budget: budget}
	k := d.MaxObjects
	if k <= 0 {
		k = len(kept)
	}
	sol := ilp.Greedy(prob, d.SeedM, k)
	return routedDesign(d.Name(), StyleCommercial, &d.Common, d.Model, budget, keptDesigns, sol), nil
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
