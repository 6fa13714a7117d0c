// Package query represents the workload: predicates (equality, range, IN),
// target attributes and aggregates, expressed over column names of the
// (pre-joined) fact relation so that the same query can run against any MV
// that contains the needed attributes.
package query

import (
	"fmt"
	"sort"
	"strings"

	"coradd/internal/value"
)

// Op is a predicate type. The clustered-index designer orders key
// attributes by predicate type — equality first, then range, then IN —
// because equality identifies one contiguous run of tuples while IN may
// point at many (paper §4.2).
type Op int

const (
	// Eq is attribute = v.
	Eq Op = iota
	// Range is lo ≤ attribute ≤ hi (inclusive on both ends).
	Range
	// In is attribute ∈ {v1, v2, ...}.
	In
)

// String names the operator.
func (o Op) String() string {
	switch o {
	case Eq:
		return "eq"
	case Range:
		return "range"
	case In:
		return "in"
	default:
		return fmt.Sprintf("op(%d)", int(o))
	}
}

// Predicate is one restriction on a named attribute.
type Predicate struct {
	Col string
	Op  Op
	// Lo/Hi bound Range predicates; Lo holds the value of Eq predicates.
	Lo, Hi value.V
	// Set holds the values of In predicates, sorted ascending.
	Set []value.V
}

// NewEq builds an equality predicate.
func NewEq(col string, v value.V) Predicate { return Predicate{Col: col, Op: Eq, Lo: v, Hi: v} }

// NewRange builds an inclusive range predicate.
func NewRange(col string, lo, hi value.V) Predicate {
	return Predicate{Col: col, Op: Range, Lo: lo, Hi: hi}
}

// NewIn builds an IN predicate; vs is copied, sorted and deduplicated
// (plans that descend or split once per set value rely on distinctness).
func NewIn(col string, vs ...value.V) Predicate {
	set := append([]value.V(nil), vs...)
	sort.Slice(set, func(i, j int) bool { return set[i] < set[j] })
	n := 0
	for i, v := range set {
		if i > 0 && v == set[n-1] {
			continue
		}
		set[n] = v
		n++
	}
	return Predicate{Col: col, Op: In, Set: set[:n]}
}

// Matches reports whether v satisfies the predicate.
func (p *Predicate) Matches(v value.V) bool {
	switch p.Op {
	case Eq:
		return v == p.Lo
	case Range:
		return v >= p.Lo && v <= p.Hi
	case In:
		i := sort.Search(len(p.Set), func(i int) bool { return p.Set[i] >= v })
		return i < len(p.Set) && p.Set[i] == v
	default:
		return false
	}
}

// Bounds returns the tightest inclusive [lo,hi] interval containing all
// matching values.
func (p *Predicate) Bounds() (lo, hi value.V) {
	if p.Op == In {
		return p.Set[0], p.Set[len(p.Set)-1]
	}
	return p.Lo, p.Hi
}

// String renders the predicate for diagnostics.
func (p *Predicate) String() string {
	switch p.Op {
	case Eq:
		return fmt.Sprintf("%s=%d", p.Col, p.Lo)
	case Range:
		return fmt.Sprintf("%d<=%s<=%d", p.Lo, p.Col, p.Hi)
	case In:
		parts := make([]string, len(p.Set))
		for i, v := range p.Set {
			parts[i] = fmt.Sprintf("%d", v)
		}
		return fmt.Sprintf("%s IN {%s}", p.Col, strings.Join(parts, ","))
	default:
		return "?"
	}
}

// Query is one workload query over a single fact table.
type Query struct {
	// Name identifies the query (e.g. "Q1.2").
	Name string
	// Fact is the name of the fact table the query reads.
	Fact string
	// Predicates restrict the scan. At most one predicate per column.
	Predicates []Predicate
	// Targets are non-predicated attributes the query must read (SELECT
	// list, GROUP BY, aggregate inputs).
	Targets []string
	// AggCol is the column whose values are summed to produce the query
	// result; used to verify that every plan computes the same answer.
	AggCol string
	// Weight is the query frequency; expected runtimes are multiplied by it
	// (§5.3, workload compression). Zero means 1.
	Weight float64
}

// Validate holds q to the invariants the planner and the cost model
// assume of a catalog query: a name, at least one column read, columns
// that exist under col (a name→position mapping such as
// (*schema.Schema).Col), at most one predicate per column, a known
// operator, and predicates in the canonical form NewEq and NewIn build —
// an equality's Hi equal to its Lo, a non-empty IN set sorted ascending
// without repeats.
func (q *Query) Validate(col func(string) int) error {
	if q.Name == "" {
		return fmt.Errorf("query document has no name")
	}
	if len(q.Predicates) == 0 && len(q.Targets) == 0 && q.AggCol == "" {
		return fmt.Errorf("query reads no columns")
	}
	known := func(c string) error {
		if col(c) < 0 {
			return fmt.Errorf("unknown column %q", c)
		}
		return nil
	}
	seen := make(map[string]bool, len(q.Predicates))
	for _, p := range q.Predicates {
		if err := known(p.Col); err != nil {
			return err
		}
		if seen[p.Col] {
			return fmt.Errorf("more than one predicate on column %q", p.Col)
		}
		seen[p.Col] = true
		switch p.Op {
		case Eq:
			if p.Hi != p.Lo {
				return fmt.Errorf("equality on column %q has Hi %d != Lo %d", p.Col, p.Hi, p.Lo)
			}
		case Range:
		case In:
			if len(p.Set) == 0 {
				return fmt.Errorf("empty IN list on column %q", p.Col)
			}
			for i := 1; i < len(p.Set); i++ {
				if p.Set[i] <= p.Set[i-1] {
					return fmt.Errorf("IN list on column %q is not sorted without repeats", p.Col)
				}
			}
		default:
			return fmt.Errorf("unknown operator %d on column %q", p.Op, p.Col)
		}
	}
	for _, c := range q.Targets {
		if err := known(c); err != nil {
			return err
		}
	}
	if q.AggCol != "" {
		return known(q.AggCol)
	}
	return nil
}

// EffectiveWeight returns Weight, defaulting to 1.
func (q *Query) EffectiveWeight() float64 {
	if q.Weight <= 0 {
		return 1
	}
	return q.Weight
}

// Predicate returns the predicate on col, or nil.
func (q *Query) Predicate(col string) *Predicate {
	for i := range q.Predicates {
		if q.Predicates[i].Col == col {
			return &q.Predicates[i]
		}
	}
	return nil
}

// AllColumns returns the set of attributes an MV must contain to answer the
// query: predicated columns, targets and the aggregate input, deduplicated,
// sorted for determinism.
func (q *Query) AllColumns() []string {
	seen := make(map[string]bool)
	var out []string
	add := func(c string) {
		if c != "" && !seen[c] {
			seen[c] = true
			out = append(out, c)
		}
	}
	for i := range q.Predicates {
		add(q.Predicates[i].Col)
	}
	for _, t := range q.Targets {
		add(t)
	}
	add(q.AggCol)
	sort.Strings(out)
	return out
}

// MatchesRow reports whether row (under the name→position mapping col)
// satisfies every predicate.
func (q *Query) MatchesRow(row value.Row, col func(string) int) bool {
	for i := range q.Predicates {
		p := &q.Predicates[i]
		if !p.Matches(row[col(p.Col)]) {
			return false
		}
	}
	return true
}

// String renders the query for diagnostics.
func (q *Query) String() string {
	preds := make([]string, len(q.Predicates))
	for i := range q.Predicates {
		preds[i] = q.Predicates[i].String()
	}
	return fmt.Sprintf("%s[%s: %s]", q.Name, q.Fact, strings.Join(preds, " & "))
}

// Workload is an ordered set of queries.
type Workload []*Query

// ByFact partitions the workload by fact table, preserving order.
func (w Workload) ByFact() map[string]Workload {
	out := make(map[string]Workload)
	for _, q := range w {
		out[q.Fact] = append(out[q.Fact], q)
	}
	return out
}

// Names lists query names in order.
func (w Workload) Names() []string {
	out := make([]string, len(w))
	for i, q := range w {
		out[i] = q.Name
	}
	return out
}

// Find returns the query with the given name, or nil.
func (w Workload) Find(name string) *Query {
	for _, q := range w {
		if q.Name == name {
			return q
		}
	}
	return nil
}
