package exp

import (
	"fmt"

	"coradd/internal/btree"
	"coradd/internal/corridx"
	"coradd/internal/designer"
	"coradd/internal/scenario"
)

// CorrIdxPoint is one budget point of the correlation-index ablation: the
// same CORADD pipeline with and without corridx candidates in the pool.
type CorrIdxPoint struct {
	Budget int64
	// WithReal/WithoutReal are measured simulated totals (seconds);
	// WithModel/WithoutModel the designers' own expectations.
	WithReal, WithoutReal   float64
	WithModel, WithoutModel float64
	// CorrIdxChosen is how many selected objects carry correlation
	// indexes; CorrIdxBytes their charged structure size and DenseBytes
	// what dense secondary B+Trees over the same target columns would
	// have cost instead.
	CorrIdxChosen int
	CorrIdxBytes  int64
	DenseBytes    int64
}

// CorrIdxBudgetMults are the ablation's space budgets as heap multiples.
// The grid starts far below the MV-viable region: a correlation index
// costs kilobytes, so the tight end is where the Hermit-style trade-off
// (succinct mapping vs dense B+Tree vs nothing) is starkest.
var CorrIdxBudgetMults = []float64{0.01, 0.05, 0.1, 0.25, 0.5, 1, 2, 4}

// CorrIdxAblation compares CORADD designs with the correlation-index
// candidate family enabled against the plain PR-2 pipeline, at every
// budget: expected and measured totals, how often corridx objects are
// selected, and their size against the dense-B+Tree alternative (the
// Hermit-style size-for-benefit claim). It runs on the chronologically
// loaded SSB variant (NewSSBChronoEnv), where the fact table's existing
// orderkey clustering correlates with the date hierarchy — the load-order
// correlation a dense secondary index wastes megabytes ignoring.
func CorrIdxAblation(s scenario.Scale) ([]CorrIdxPoint, *Table, error) {
	env := scenario.SSBChrono(s)
	without := newCoradd(env, env.Scale.FB.MaxIters)
	withCfg := env.Scale.Cand
	withCfg.CorrIdx = true
	with := designer.NewCORADD(env.Common, withCfg, env.Scale.FB)

	ev := env.Evaluator()
	t := &Table{
		ID: "Ablation corridx", Title: "Correlation-index candidates on/off (chrono-loaded SSB, measured and expected totals)",
		Header: []string{"budget_MB", "with_sec", "without_sec", "with_model", "without_model", "cidx_objs", "cidx_KB", "dense_KB"},
	}
	var pts []CorrIdxPoint
	budgets := make([]int64, len(CorrIdxBudgetMults))
	for i, m := range CorrIdxBudgetMults {
		budgets[i] = int64(m * float64(env.Rel.HeapBytes()))
	}
	for _, budget := range budgets {
		dw, err := with.Design(budget)
		if err != nil {
			return nil, nil, err
		}
		dwo, err := without.Design(budget)
		if err != nil {
			return nil, nil, err
		}
		rw, err := ev.Measure(dw)
		if err != nil {
			return nil, nil, err
		}
		rwo, err := ev.Measure(dwo)
		if err != nil {
			return nil, nil, err
		}
		p := CorrIdxPoint{
			Budget:       budget,
			WithReal:     rw.Total,
			WithoutReal:  rwo.Total,
			WithModel:    dw.TotalExpected(env.W),
			WithoutModel: dwo.TotalExpected(env.W),
		}
		for _, md := range dw.Chosen {
			if len(md.CorrIdxs) == 0 {
				continue
			}
			p.CorrIdxChosen++
			for _, spec := range md.CorrIdxs {
				outRows := int(spec.EstOutlierFrac * float64(env.St.NumRows()))
				keyBytes := env.Rel.Schema.Columns[spec.Target].ByteSize
				p.CorrIdxBytes += corridx.EstimateBytes(spec.EstEntries, outRows, keyBytes)
				p.DenseBytes += btree.EstimateBytes(env.St.NumRows(), keyBytes)
			}
		}
		pts = append(pts, p)
		t.Rows = append(t.Rows, []string{
			mb(budget), f3(p.WithReal), f3(p.WithoutReal), f3(p.WithModel), f3(p.WithoutModel),
			fmt.Sprintf("%d", p.CorrIdxChosen),
			fmt.Sprintf("%.1f", float64(p.CorrIdxBytes)/1024),
			fmt.Sprintf("%.1f", float64(p.DenseBytes)/1024),
		})
	}
	t.Notes = append(t.Notes,
		"Hermit (arXiv:1903.11203): correlation-exploiting secondary indexes are orders of magnitude smaller than dense B+Trees at comparable lookup cost",
		"with corridx disabled (the default) the candidate pool and every other experiment are unchanged")
	return pts, t, nil
}
