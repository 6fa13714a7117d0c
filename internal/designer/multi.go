package designer

import (
	"fmt"
	"sort"

	"coradd/internal/candgen"
	"coradd/internal/feedback"
	"coradd/internal/query"
	"coradd/internal/stats"
	"coradd/internal/storage"
)

// Fact bundles one fact table's inputs for a multi-fact design run.
type Fact struct {
	Rel *storage.Relation
	// PKCols are primary-key positions in Rel's schema.
	PKCols []int
	// SampleSize/Seed configure this fact's statistics.
	SampleSize int
	Seed       int64
}

// Multi coordinates per-fact CORADD designers over a workload that spans
// several fact tables. The paper generates candidates per fact table —
// its candidate generator "runs k-means for each fact table" and two-fact
// queries are split into independent per-fact queries (§4.1.2, §7.1) —
// and selects them against one shared space budget, each fact with its
// own re-clustering group (Table 3). Multi.Design is that selection:
// DesignShared over the per-fact designers.
type Multi struct {
	// Order is the deterministic fact iteration order.
	Order []string
	// Designers and Workloads are per fact table.
	Designers map[string]*CORADD
	Workloads map[string]query.Workload
}

// MultiDesign is a combined design: one Design per fact table.
type MultiDesign struct {
	PerFact map[string]*Design
	// Size is the total space consumed across facts.
	Size int64
}

// TotalExpected sums the weighted expected runtimes over every fact's
// workload.
func (md *MultiDesign) TotalExpected(workloads map[string]query.Workload) float64 {
	total := 0.0
	for fact, d := range md.PerFact {
		total += d.TotalExpected(workloads[fact])
	}
	return total
}

// NewMulti partitions the workload by fact table and builds one CORADD
// designer per fact. Every query's Fact must name a key of facts.
func NewMulti(facts map[string]Fact, w query.Workload, disk storage.DiskParams,
	cand candgen.Config, fb feedback.Config) (*Multi, error) {

	m := &Multi{
		Designers: make(map[string]*CORADD),
		Workloads: make(map[string]query.Workload),
	}
	byFact := w.ByFact()
	for fact := range byFact {
		if _, ok := facts[fact]; !ok {
			return nil, fmt.Errorf("designer: workload references unknown fact table %q", fact)
		}
	}
	names := make([]string, 0, len(facts))
	for name := range facts {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		f := facts[name]
		sub := byFact[name]
		if len(sub) == 0 {
			continue
		}
		sample := f.SampleSize
		if sample <= 0 {
			sample = stats.DefaultSampleSize
		}
		common := Common{
			St: stats.New(f.Rel, sample, f.Seed+1), W: sub, Disk: disk,
			PKCols: f.PKCols, BaseKey: f.Rel.ClusterKey,
		}
		m.Order = append(m.Order, name)
		m.Designers[name] = NewCORADD(common, cand, fb)
		m.Workloads[name] = sub
	}
	if len(m.Order) == 0 {
		return nil, fmt.Errorf("designer: no fact table has any queries")
	}
	return m, nil
}

// Design selects every fact's objects against the one shared budget: one
// pooled solve per feedback round over all facts (DesignShared), under
// the per-fact designers' feedback configuration.
func (m *Multi) Design(budget int64) (*MultiDesign, error) {
	ds := make([]*CORADD, len(m.Order))
	for i, name := range m.Order {
		ds[i] = m.Designers[name]
	}
	designs, err := DesignShared(ds, nil, budget, ds[0].Feedback)
	if err != nil {
		return nil, err
	}
	out := &MultiDesign{PerFact: make(map[string]*Design, len(m.Order))}
	for i, name := range m.Order {
		out.PerFact[name] = designs[i]
		out.Size += designs[i].Size
	}
	return out, nil
}

// SplitQuery models a two-fact query as independent per-fact queries,
// discarding join predicates, exactly as §4.1.2 prescribes ("when a query
// accesses two fact tables, we model it as two independent queries").
// Each part keeps only the predicates, targets and aggregate resolvable
// in its fact's schema.
func SplitQuery(q *query.Query, facts map[string]*storage.Relation) []*query.Query {
	var out []*query.Query
	names := make([]string, 0, len(facts))
	for name := range facts {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		rel := facts[name]
		part := &query.Query{
			Name:   q.Name + "@" + name,
			Fact:   name,
			Weight: q.Weight,
		}
		for i := range q.Predicates {
			if rel.Schema.Col(q.Predicates[i].Col) >= 0 {
				part.Predicates = append(part.Predicates, q.Predicates[i])
			}
		}
		for _, tcol := range q.Targets {
			if rel.Schema.Col(tcol) >= 0 {
				part.Targets = append(part.Targets, tcol)
			}
		}
		if rel.Schema.Col(q.AggCol) >= 0 {
			part.AggCol = q.AggCol
		}
		if len(part.Predicates) > 0 || part.AggCol != "" {
			out = append(out, part)
		}
	}
	return out
}
