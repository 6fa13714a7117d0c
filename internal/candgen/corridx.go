package candgen

import (
	"fmt"
	"sort"

	"coradd/internal/cm"
	"coradd/internal/corridx"
	"coradd/internal/costmodel"
	"coradd/internal/storage"
	"coradd/internal/value"
)

// This file emits correlation-index candidates (internal/corridx): design
// objects that answer predicates on a target column A through a succinct
// range mapping onto a correlated host column B leading a clustered key,
// instead of a dense secondary B+Tree. Three forms widen the search space
// along the paper's correlation axis:
//
//   - the fact heap in place, overlaid with corridx structure (host = the
//     existing clustered lead) — costs only the structure's bytes;
//   - a fact re-clustering on a predicated host column, whose corridx
//     variants serve correlated attributes page-exactly;
//   - MV variants: a query group's clustering whose lead hosts mappings
//     for the group's other predicated attributes.
//
// Candidate quality is measured on the host-sorted statistics synopsis by
// reusing the CM machinery (A-1): cm.Build over the synopsis clustered by
// the host counts how many clustered fragments an average target value
// fans into (the pair statistics), cm.Derive re-buckets them for coarser
// target widths, and corridx.SampleStats applies the real trimming rule to
// predict the outlier fraction. Only strong correlations survive the gate;
// weak ones would be priced near a scan by the cost model anyway.

// Correlation-gate thresholds: a target qualifies when an average target
// value touches at most corrIdxMaxFrags synopsis fragments, at most
// corrIdxMaxOutlierFrac of the rows would be exiled to the outlier tree,
// and a translated host range covers at most corrIdxMaxAmplification rows
// per matching row (rejecting many-to-one dependencies like city→region,
// whose "ranges" span whole regions).
const (
	corrIdxMaxFrags         = 2.5
	corrIdxMaxOutlierFrac   = 0.10
	corrIdxMaxAmplification = 8.0
)

// corrIdxSpaceLimit caps one mapping's size, mirroring the paper's 1 MB
// per-CM budget; wider target buckets are chosen until the mapping fits.
const corrIdxSpaceLimit = cm.DefaultSpaceLimit

// corrStat is the cached quality measurement for one (host, target) pair.
type corrStat struct {
	ok    bool
	width value.V
	spec  costmodel.CorrIdxSpec
}

// corrStats measures (and memoizes) the corridx quality of target over
// host. The synopsis is sorted by the host column; the pair statistics
// come from an exact CM built over that ordering.
func (g *Generator) corrStats(host, target int) corrStat {
	if g.corrMem == nil {
		g.corrMem = make(map[[2]int]corrStat)
	}
	key := [2]int{host, target}
	if s, ok := g.corrMem[key]; ok {
		return s
	}
	s := g.measureCorr(host, target)
	g.corrMem[key] = s
	return s
}

func (g *Generator) measureCorr(host, target int) corrStat {
	synRel := g.synopsisRelation(host)
	if synRel == nil || synRel.NumRows() == 0 {
		return corrStat{}
	}
	// Pair statistics: one exact CM over the host-sorted synopsis, coarser
	// widths derived from its pairs. NumPairs/distinct ≈ clustered
	// fragments per target value — 1 means perfectly contiguous.
	base := cm.Build(synRel, []int{target}, []value.V{1}, 1)
	// The fitting width is pure arithmetic (entry count vs space limit);
	// derive the coarser CM once, at the final width only.
	width := value.V(1)
	for {
		entries := int(g.St.Distinct(target)/float64(width)) + 1
		if corridx.MappingBytes(entries) <= corrIdxSpaceLimit || width >= 1<<20 {
			break
		}
		width *= 2
	}
	m := base
	if width > 1 {
		m = cm.Derive(base, []value.V{width})
	}
	distinctBuckets := make(map[value.V]bool)
	for _, v := range synRel.Cols[target] {
		distinctBuckets[corridx.BucketOf(v, width)] = true
	}
	if len(distinctBuckets) == 0 {
		return corrStat{}
	}
	// Perfectly contiguous values produce ≈ one pair per target bucket plus
	// one per cluster bucket they span (boundary sharing), so that sum is
	// the ideal pair count; zero correlation multiplies the two instead.
	ideal := float64(len(distinctBuckets) + synRel.NumPages())
	frags := float64(m.NumPairs()) / ideal
	entries, outlierFrac, amp := corridx.SampleStats(g.St.SortedSample([]int{host}), target, host, corridx.Config{TargetWidth: width})
	if frags > corrIdxMaxFrags || outlierFrac > corrIdxMaxOutlierFrac || amp > corrIdxMaxAmplification {
		return corrStat{}
	}
	// Scale the entry count from the synopsis to the full relation using
	// the exact single-column cardinality.
	fullEntries := int(g.St.Distinct(target)/float64(width)) + 1
	if fullEntries < entries {
		fullEntries = entries
	}
	return corrStat{
		ok:    true,
		width: width,
		spec: costmodel.CorrIdxSpec{
			Target:         target,
			Width:          width,
			EstEntries:     fullEntries,
			EstOutlierFrac: outlierFrac,
		},
	}
}

// synopsisRelation returns (and memoizes) the statistics synopsis as a
// small relation clustered on host, the substrate the pair statistics and
// trimming predictions run on.
func (g *Generator) synopsisRelation(host int) *storage.Relation {
	if g.synMem == nil {
		g.synMem = make(map[int]*storage.Relation)
	}
	if rel, ok := g.synMem[host]; ok {
		return rel
	}
	rows := make([]value.Row, len(g.St.Sample))
	copy(rows, g.St.Sample)
	rel := storage.NewRelation("synopsis", g.St.Rel.Schema, []int{host}, rows)
	g.synMem[host] = rel
	return rel
}

// predicatedCols lists the sorted base positions of every predicated
// workload attribute.
func (g *Generator) predicatedCols() []int {
	set := make(map[int]bool)
	for _, q := range g.W {
		for i := range q.Predicates {
			if c := g.St.Rel.Schema.Col(q.Predicates[i].Col); c >= 0 {
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

// CorrIdxCandidates emits fact-heap correlation-index candidates: the
// in-place overlay on the existing clustered lead, and corridx variants of
// the single-attribute fact re-clusterings. Per host, each qualifying
// target yields a single-index candidate, and all qualifying targets
// together a combined candidate. Every candidate joins the fact-exclusion
// group (a competing re-clustering would invalidate the mappings).
func (g *Generator) CorrIdxCandidates() []*costmodel.MVDesign {
	preds := g.predicatedCols()
	ncols := len(g.St.Rel.Schema.Columns)
	allCols := make([]int, ncols)
	for i := range allCols {
		allCols[i] = i
	}
	var out []*costmodel.MVDesign
	emit := func(overlay bool, key []int, specs []costmodel.CorrIdxSpec, label string) {
		if len(specs) == 0 {
			return
		}
		g.nameSeq++
		out = append(out, &costmodel.MVDesign{
			Name:          fmt.Sprintf("cidx%d_%s", g.nameSeq, label),
			Cols:          allCols,
			ClusterKey:    key,
			FactRecluster: !overlay,
			FactOverlay:   overlay,
			PKCols:        g.PKCols,
			FactGroup:     g.FactGroup,
			CorrIdxs:      specs,
		})
	}
	hostCandidates := func(host int, overlay bool, key []int, hostName string) {
		var combined []costmodel.CorrIdxSpec
		for _, target := range preds {
			if target == host {
				continue
			}
			s := g.corrStats(host, target)
			if !s.ok {
				continue
			}
			tName := g.St.Rel.Schema.Columns[target].Name
			emit(overlay, key, []costmodel.CorrIdxSpec{s.spec},
				fmt.Sprintf("%s_on_%s", tName, hostName))
			combined = append(combined, s.spec)
		}
		if len(combined) > 1 {
			emit(overlay, key, combined, fmt.Sprintf("all_on_%s", hostName))
		}
	}
	// In-place overlay on the fact's existing clustering.
	if baseKey := g.St.Rel.ClusterKey; len(baseKey) > 0 {
		lead := baseKey[0]
		hostCandidates(lead, true, append([]int(nil), baseKey...),
			g.St.Rel.Schema.Columns[lead].Name+"_base")
	}
	// Corridx variants of the single-attribute re-clusterings.
	for _, host := range preds {
		hostCandidates(host, false, []int{host}, g.St.Rel.Schema.Columns[host].Name)
	}
	return out
}

// corrIdxVariants derives corridx variants of one MV group design: the
// design's clustered lead hosts mappings for the group's other predicated
// attributes that correlate with it. Variants carry the same columns,
// clustering and query group, plus the index specs.
func (g *Generator) corrIdxVariants(d *costmodel.MVDesign, group []int) []*costmodel.MVDesign {
	if len(d.ClusterKey) == 0 {
		return nil
	}
	host := d.ClusterKey[0]
	targetSet := make(map[int]bool)
	for _, qi := range group {
		for i := range g.W[qi].Predicates {
			c := g.St.Rel.Schema.Col(g.W[qi].Predicates[i].Col)
			if c >= 0 && c != host && d.HasCol(c) {
				targetSet[c] = true
			}
		}
	}
	targets := make([]int, 0, len(targetSet))
	for c := range targetSet {
		targets = append(targets, c)
	}
	sort.Ints(targets)
	var specs []costmodel.CorrIdxSpec
	for _, target := range targets {
		if s := g.corrStats(host, target); s.ok {
			specs = append(specs, s.spec)
		}
	}
	if len(specs) == 0 {
		return nil
	}
	g.nameSeq++
	v := &costmodel.MVDesign{
		Name:       fmt.Sprintf("cidx%d_%s", g.nameSeq, d.Name),
		Cols:       d.Cols,
		ClusterKey: d.ClusterKey,
		Queries:    append([]int(nil), d.Queries...),
		CorrIdxs:   specs,
	}
	return []*costmodel.MVDesign{v}
}
