package exp

import (
	"fmt"

	"coradd/internal/costmodel"
	"coradd/internal/exec"
	"coradd/internal/query"
	"coradd/internal/scenario"
	"coradd/internal/ssb"
)

// CostModelPoint is one clustering point of Figure 10.
type CostModelPoint struct {
	ClusterKey string
	Fragments  int
	// RealSeconds is the measured runtime of the secondary-index plan.
	RealSeconds float64
	// ObliviousModel is the commercial model's (clustering-independent)
	// prediction.
	ObliviousModel float64
	// AwareModel is CORADD's prediction for the same design.
	AwareModel float64
}

// CostModelError reproduces Figure 10: a fixed query through a secondary
// B+Tree index on commitdate, with the lineorder table re-clustered on
// keys of decreasing correlation. Real runtime spans a wide range; the
// commercial model predicts nearly the same cost everywhere.
func CostModelError(env *scenario.Env) ([]CostModelPoint, *Table) {
	s := env.Rel.Schema
	q := &query.Query{
		Name: "F10", Fact: env.Rel.Name, AggCol: ssb.ColRevenue,
		Predicates: []query.Predicate{
			query.NewRange(ssb.ColCommitDate, 19940101, 19940230),
		},
		Targets: []string{ssb.ColExtPrice},
	}
	// Clusterings from strongly correlated with commitdate to uncorrelated.
	clusterings := []string{
		ssb.ColOrderDate, // ≈ commitdate
		ssb.ColYearMonth, // month granularity
		ssb.ColYear,      // year granularity
		ssb.ColWeekNum,   // week-of-year: weakly correlated
		ssb.ColOrderKey,  // none
	}
	oblivious := costmodel.NewOblivious(env.St, env.Common.Disk)
	aware := costmodel.NewAware(env.St, env.Common.Disk)
	aware.WithCM = false // the figure uses a plain secondary B+Tree

	var pts []CostModelPoint
	t := &Table{
		ID: "Figure 10", Title: "Cost-model error vs fragmentation (secondary index on commitdate)",
		Header: []string{"clustered_on", "fragments", "real_sec", "commercial_model", "aware_model"},
	}
	allCols := make([]int, len(s.Columns))
	for i := range allCols {
		allCols[i] = i
	}
	for _, key := range clusterings {
		rel := env.Rel.Project("f10_"+key, allCols, []int{s.MustCol(key)})
		obj := exec.NewObject(rel)
		obj.AddBTree([]int{s.MustCol(ssb.ColCommitDate)})
		r, err := exec.Execute(obj, q, exec.PlanSpec{Kind: exec.SecondaryScan, Index: 0})
		if err != nil {
			continue
		}
		frags := r.TouchedIntervals // pre-merge touched page runs (paper's x-axis)
		design := &costmodel.MVDesign{Name: key, Cols: allCols, ClusterKey: []int{s.MustCol(key)}}
		om, _ := oblivious.Estimate(design, q)
		am, _ := aware.Estimate(design, q)
		pts = append(pts, CostModelPoint{
			ClusterKey: key, Fragments: frags,
			RealSeconds: r.Seconds(env.Common.Disk), ObliviousModel: om, AwareModel: am,
		})
		t.Rows = append(t.Rows, []string{
			key, fmt.Sprintf("%d", frags), f3(r.Seconds(env.Common.Disk)), f3(om), f3(am),
		})
	}
	t.Notes = append(t.Notes,
		"paper: real runtime varies ~25x with correlation while the commercial model predicts a flat cost")
	return pts, t
}

// AccessGapResult reproduces the §A-2.1 motivating measurement.
type AccessGapResult struct {
	CorrelatedSeconds   float64
	UncorrelatedSeconds float64
	Ratio               float64
}

// AccessPatternGap measures the same secondary-index lookup on commitdate
// with the heap clustered on orderdate (correlated; the paper measures 6 s)
// versus orderkey (uncorrelated; 150 s).
func AccessPatternGap(env *scenario.Env) (*AccessGapResult, *Table) {
	s := env.Rel.Schema
	q := &query.Query{
		Name: "A2", Fact: env.Rel.Name, AggCol: ssb.ColRevenue,
		Predicates: []query.Predicate{
			query.NewRange(ssb.ColCommitDate, 19950101, 19950130),
		},
	}
	allCols := make([]int, len(s.Columns))
	for i := range allCols {
		allCols[i] = i
	}
	measure := func(key string) float64 {
		rel := env.Rel.Project("a2_"+key, allCols, []int{s.MustCol(key)})
		obj := exec.NewObject(rel)
		obj.AddBTree([]int{s.MustCol(ssb.ColCommitDate)})
		r, err := exec.Execute(obj, q, exec.PlanSpec{Kind: exec.SecondaryScan, Index: 0})
		if err != nil {
			return -1
		}
		return r.Seconds(env.Common.Disk)
	}
	res := &AccessGapResult{
		CorrelatedSeconds:   measure(ssb.ColOrderDate),
		UncorrelatedSeconds: measure(ssb.ColOrderKey),
	}
	if res.CorrelatedSeconds > 0 {
		res.Ratio = res.UncorrelatedSeconds / res.CorrelatedSeconds
	}
	t := &Table{
		ID: "Figure 13 / §A-2.1", Title: "Correlated vs uncorrelated clustering, same secondary lookup",
		Header: []string{"clustered_on", "seconds"},
		Rows: [][]string{
			{ssb.ColOrderDate + " (correlated)", f3(res.CorrelatedSeconds)},
			{ssb.ColOrderKey + " (uncorrelated)", f3(res.UncorrelatedSeconds)},
			{"ratio", f2(res.Ratio)},
		},
		Notes: []string{"paper: 6 s vs 150 s (25x) on SSB scale 20"},
	}
	return res, t
}
