package exp

import (
	"fmt"

	"coradd/internal/scenario"
	"coradd/internal/ssb"
)

// vectorCols are the attributes Tables 1 and 2 display.
var vectorCols = []string{ssb.ColYear, ssb.ColYearMonth, ssb.ColWeekNum, ssb.ColDiscount, ssb.ColQuantity}

// VectorsResult carries the raw and propagated selectivity vectors of the
// SSB flight-1 queries plus the strengths the propagation used.
type VectorsResult struct {
	Queries    []string
	Attrs      []string
	Raw        [][]float64 // [query][attr]
	Propagated [][]float64
	// Strengths records strength(from → to) for the pairs the paper lists.
	Strengths map[string]float64
}

// SelectivityVectors reproduces Table 1 (raw selectivity vectors of Q1.1–
// Q1.3) and Table 2 (after selectivity propagation).
func SelectivityVectors(env *scenario.Env) (*VectorsResult, *Table, *Table) {
	qs := []string{"Q1.1", "Q1.2", "Q1.3"}
	res := &VectorsResult{Attrs: vectorCols, Strengths: map[string]float64{}}
	t1 := &Table{
		ID: "Table 1", Title: "Selectivity vectors of SSB flight 1",
		Header: append([]string{"query"}, vectorCols...),
	}
	t2 := &Table{
		ID: "Table 2", Title: "Selectivity vectors after propagation",
		Header: append([]string{"query"}, vectorCols...),
	}
	for _, name := range qs {
		q := env.W.Find(name)
		if q == nil {
			continue
		}
		res.Queries = append(res.Queries, name)
		raw := env.St.SelectivityVector(q)
		prop := env.St.Propagate(env.St.SelectivityVector(q))
		rawRow, propRow := []string{name}, []string{name}
		var rawV, propV []float64
		for _, attr := range vectorCols {
			c := env.Rel.Schema.MustCol(attr)
			rawV = append(rawV, raw.Sel[c])
			propV = append(propV, prop.Sel[c])
			rawRow = append(rawRow, f3(raw.Sel[c]))
			propRow = append(propRow, f3(prop.Sel[c]))
		}
		res.Raw = append(res.Raw, rawV)
		res.Propagated = append(res.Propagated, propV)
		t1.Rows = append(t1.Rows, rawRow)
		t2.Rows = append(t2.Rows, propRow)
	}
	// The strengths the paper quotes under Table 1.
	pairs := [][2]string{
		{ssb.ColYearMonth, ssb.ColYear},
		{ssb.ColYear, ssb.ColYearMonth},
		{ssb.ColWeekNum, ssb.ColYearMonth},
	}
	for _, p := range pairs {
		s := env.St.Strength(
			[]int{env.Rel.Schema.MustCol(p[0])},
			[]int{env.Rel.Schema.MustCol(p[1])},
		)
		key := fmt.Sprintf("%s->%s", p[0], p[1])
		res.Strengths[key] = s
		t2.Notes = append(t2.Notes, fmt.Sprintf("strength(%s) = %.3f", key, s))
	}
	return res, t1, t2
}
