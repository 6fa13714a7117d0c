package stats

import (
	"coradd/internal/query"
)

// Vector is a selectivity vector (§4.1.1): Sel[c] is the selectivity of the
// query's restriction on column c of the relation (1 when unpredicated),
// optionally adjusted by selectivity propagation. Pairs carries composite
// selectivities for predicated column pairs (used when a multi-attribute
// composite determines another attribute, as year,weeknum does for
// yearmonth in the paper's Table 2).
type Vector struct {
	Sel   []float64
	Pairs map[[2]int]float64
}

// SelectivityVector builds the raw (un-propagated) vector for q: one entry
// per relation column with the histogram selectivity of the predicate on
// that column, or 1.
func (st *Stats) SelectivityVector(q *query.Query) Vector {
	n := len(st.Rel.Schema.Columns)
	v := Vector{Sel: make([]float64, n), Pairs: make(map[[2]int]float64)}
	for c := range v.Sel {
		v.Sel[c] = 1
	}
	var predCols []int
	for i := range q.Predicates {
		p := &q.Predicates[i]
		c := st.Rel.Schema.Col(p.Col)
		if c < 0 {
			continue
		}
		v.Sel[c] = st.PredicateSelectivity(p)
		predCols = append(predCols, c)
	}
	// Composite selectivities for predicated pairs, measured jointly from
	// the synopsis so inter-predicate correlation is captured.
	for i := 0; i < len(predCols); i++ {
		for j := i + 1; j < len(predCols); j++ {
			a, b := predCols[i], predCols[j]
			if a > b {
				a, b = b, a
			}
			v.Pairs[[2]int{a, b}] = st.pairSelectivity(q, a, b)
		}
	}
	return v
}

// pairSelectivity measures the joint selectivity of the predicates on
// columns a and b from the synopsis, floored at half a sample row.
func (st *Stats) pairSelectivity(q *query.Query, a, b int) float64 {
	pa := q.Predicate(st.Rel.Schema.Columns[a].Name)
	pb := q.Predicate(st.Rel.Schema.Columns[b].Name)
	if pa == nil || pb == nil {
		return 1
	}
	return st.MatchBits(q).Fraction(q, pa, pb)
}

// minStrength is the correlation-strength floor below which propagation is
// not applied: dividing a selectivity by a near-zero strength yields a
// useless bound anyway and risks numeric noise.
const minStrength = 0.01

// Propagate applies Selectivity Propagation (§4.1.1) to v in place:
//
//	selectivity(Ci) = min_j( selectivity(Cj) / strength(Ci → Cj) )
//
// applied transitively over all single attributes and the predicated pairs
// until a fixpoint, which Appendix A-4 shows is reached within |A| steps
// because strengths are < 1 and update paths are acyclic. Selectivities
// only ever decrease.
func (st *Stats) Propagate(v Vector) Vector {
	n := len(v.Sel)
	// Interesting sources: columns/pairs whose selectivity is < 1.
	for step := 0; step < n; step++ {
		changed := false
		for ci := 0; ci < n; ci++ {
			best := v.Sel[ci]
			for cj := 0; cj < n; cj++ {
				if cj == ci || v.Sel[cj] >= best {
					continue
				}
				s := st.Strength([]int{ci}, []int{cj})
				if s < minStrength {
					continue
				}
				if cand := v.Sel[cj] / s; cand < best {
					best = cand
				}
			}
			for pair, psel := range v.Pairs {
				if pair[0] == ci || pair[1] == ci || psel >= best {
					continue
				}
				s := st.Strength([]int{ci}, []int{pair[0], pair[1]})
				if s < minStrength {
					continue
				}
				if cand := psel / s; cand < best {
					best = cand
				}
			}
			if best < v.Sel[ci] {
				v.Sel[ci] = best
				changed = true
			}
		}
		if !changed {
			break
		}
	}
	return v
}

// clone deep-copies the vector so cached masters never escape.
func (v Vector) clone() Vector {
	out := Vector{Sel: append([]float64(nil), v.Sel...)}
	if v.Pairs != nil {
		out.Pairs = make(map[[2]int]float64, len(v.Pairs))
		for k, s := range v.Pairs {
			out.Pairs[k] = s
		}
	}
	return out
}

// PropagatedVector is SelectivityVector followed by Propagate, cached per
// query: the candidate generator re-derives dedicated keys from the same
// propagated vectors throughout its recursive merge. Each call returns a
// fresh copy, so callers may retain or mutate the result (Propagate's
// in-place idiom) without corrupting the cache.
func (st *Stats) PropagatedVector(q *query.Query) Vector {
	return st.propMem.get(q, func() Vector {
		return st.Propagate(st.SelectivityVector(q))
	}).clone()
}
