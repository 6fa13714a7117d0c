package query

import (
	"fmt"
	"math/bits"
	"sync"

	"coradd/internal/value"
)

// CompileCache memoizes Compiled bindings per *Query for one fixed
// name→position mapping (one schema). Safe for concurrent use; the zero
// value is ready. The executor keeps one per materialized object.
type CompileCache struct {
	m sync.Map // *Query → *Compiled
}

// Get returns q bound through col, compiling on first sight. All calls for
// one cache must pass the same mapping.
func (c *CompileCache) Get(q *Query, col func(string) int) *Compiled {
	if v, ok := c.m.Load(q); ok {
		return v.(*Compiled)
	}
	cq := MustCompile(q, col)
	c.m.Store(q, cq)
	return cq
}

// inBitsCap bounds an IN bitmap: a set whose span max−min reaches it keeps
// its sorted-set probe instead (CompiledPred.Set). Generated workloads'
// spans stay far below it; only outside documents (a /query body) can send
// sets like {MinInt64, MaxInt64}.
const inBitsCap = 1 << 16

// CompiledPred is one predicate bound to a column position and compiled to
// the one form every row evaluator tests: an interval [Lo, Lo+Span] and a
// bitmap over it. Value v matches when d = uint64(v)−uint64(Lo) satisfies
// d ≤ Span and bit d&63 of word Bits[(d>>6)&WMask] is set. Eq is [v, v]
// and Range [Lo, Hi], each with one all-ones word and WMask 0; an empty
// range or IN set is one all-zero word. IN is [min, max] of its set with
// bit v−min set per member, over a power-of-two count of words, so WMask =
// len(Bits)−1 keeps every probe in bounds. The operator is decided here,
// once, and never per row.
type CompiledPred struct {
	// Col is the column position in the target schema.
	Col   int
	Lo    value.V
	Span  uint64
	Bits  []uint64
	WMask uint64
	// Set is non-nil only for an IN whose span reaches inBitsCap: its
	// members, sorted ascending (shared with the source predicate, never
	// mutated), probed by binary search within [Lo, Lo+Span]. Bits is then
	// one all-ones word.
	Set []value.V
}

var allOnes, allZeros = []uint64{^uint64(0)}, []uint64{0}

// CompilePred compiles p, bound to column position col, to the one form.
func CompilePred(p *Predicate, col int) CompiledPred {
	c := CompiledPred{Col: col, Lo: p.Lo, Bits: allZeros}
	switch p.Op {
	case Eq:
		c.Bits = allOnes
	case Range:
		if p.Lo <= p.Hi {
			c.Span, c.Bits = uint64(p.Hi)-uint64(p.Lo), allOnes
		}
	case In:
		if len(p.Set) == 0 {
			break
		}
		c.Lo = p.Set[0]
		c.Span = uint64(p.Set[len(p.Set)-1]) - uint64(c.Lo)
		if c.Span >= inBitsCap {
			c.Bits, c.Set = allOnes, p.Set
			break
		}
		c.Bits = make([]uint64, 1<<bits.Len64(c.Span>>6))
		c.WMask = uint64(len(c.Bits) - 1)
		for _, v := range p.Set {
			if d := uint64(v) - uint64(c.Lo); d <= c.Span {
				c.Bits[d>>6] |= 1 << (d & 63)
			}
		}
	}
	return c
}

// Has reports whether v satisfies the predicate: the form's test, or the
// sorted-set probe for a wide IN.
func (p *CompiledPred) Has(v value.V) bool {
	d := uint64(v) - uint64(p.Lo)
	if p.Set != nil {
		return d <= p.Span && inSet(p.Set, v)
	}
	return d <= p.Span && p.Bits[(d>>6)&p.WMask]>>(d&63)&1 == 1
}

// Compiled is a query bound to one schema: every predicate and the
// aggregate column are resolved to positions and compiled once, so the
// per-row inner loops of the executor run without string-map lookups,
// closure dispatch or operator switches. A Compiled is immutable after
// Compile and safe for concurrent use.
type Compiled struct {
	// Preds are the compiled predicates, in the query's declaration order.
	Preds []CompiledPred
	// Agg is the aggregate column position, or -1 when the query has none.
	Agg int
}

// Compile binds q's predicates and aggregate to column positions through
// col (a name→position mapping such as (*schema.Schema).Col). It returns an
// error when a predicated column or the aggregate column is absent
// (col(name) < 0), mirroring the panic interpreted execution would hit.
func Compile(q *Query, col func(string) int) (*Compiled, error) {
	c := &Compiled{Preds: make([]CompiledPred, len(q.Predicates)), Agg: -1}
	for i := range q.Predicates {
		p := &q.Predicates[i]
		pos := col(p.Col)
		if pos < 0 {
			return nil, fmt.Errorf("query: compile %s: unknown column %s", q.Name, p.Col)
		}
		c.Preds[i] = CompilePred(p, pos)
	}
	if q.AggCol != "" {
		pos := col(q.AggCol)
		if pos < 0 {
			return nil, fmt.Errorf("query: compile %s: unknown aggregate column %s", q.Name, q.AggCol)
		}
		c.Agg = pos
	}
	return c, nil
}

// MustCompile is Compile but panics on unknown columns; used where the
// caller has already verified coverage.
func MustCompile(q *Query, col func(string) int) *Compiled {
	c, err := Compile(q, col)
	if err != nil {
		panic(err)
	}
	return c
}

// inSet reports whether v is in the ascending-sorted set, branch-light
// binary search without closure allocation.
func inSet(set []value.V, v value.V) bool {
	lo, hi := 0, len(set)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if set[mid] < v {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo < len(set) && set[lo] == v
}
