// Package stats implements the statistics substrate CORADD's designer runs
// on (§4.1, Appendix A-2.2): random synopses, distinct-value estimation
// (sample-based estimators from Charikar et al.), CORDS-style functional-dependency strengths, per-column histograms,
// selectivity vectors, selectivity propagation, and fragment estimation for
// hypothetical MV designs.
package stats

import "math"

// sampleCounts summarizes a sample's value-frequency profile for the
// sample-based distinct estimators: d distinct values, f1 seen once,
// f2 seen twice.
type sampleCounts struct {
	d, f1, f2 int
}

// RunProfile builds a (d, f1, f2) frequency profile from observations
// that arrive grouped, each value's occurrences in one run.
type RunProfile struct {
	D, F1, F2 int
	run       int
}

// Add counts one observation; newValue starts the next value's run. A
// run's length moves F1 and F2 as it grows: 1 joins F1, 2 moves to F2, 3
// leaves it.
func (p *RunProfile) Add(newValue bool) {
	if newValue {
		p.D, p.run = p.D+1, 0
	}
	p.run++
	switch p.run {
	case 1:
		p.F1++
	case 2:
		p.F1, p.F2 = p.F1-1, p.F2+1
	case 3:
		p.F2--
	}
}

// GEE is the Guaranteed-Error Estimator of Charikar, Chaudhuri, Motwani and
// Narasayya (PODS 2000), the paper CORADD cites as [4] for composite-
// attribute cardinality estimation:
//
//	D̂ = sqrt(n/r)·f1 + (d − f1)
//
// where the sample has r rows out of n. The same paper introduces the
// Adaptive Estimator (AE); GEE is its guaranteed-ratio sibling and we use
// it with Chao's correction as the AE stand-in (see EstimateDistinct).
func GEE(c sampleCounts, sampleRows, totalRows int) float64 {
	if sampleRows <= 0 || c.d == 0 {
		return float64(c.d)
	}
	scale := math.Sqrt(float64(totalRows) / float64(sampleRows))
	return scale*float64(c.f1) + float64(c.d-c.f1)
}

// Chao is Chao's lower-bound estimator D̂ = d + f1²/(2·f2), a standard
// species-richness correction that adapts to skew via the f1/f2 ratio.
func Chao(c sampleCounts) float64 {
	if c.f2 == 0 {
		// Chao84 bias-corrected form avoids the division by zero.
		return float64(c.d) + float64(c.f1*(c.f1-1))/2
	}
	return float64(c.d) + float64(c.f1*c.f1)/float64(2*c.f2)
}

// EstimateDistinct combines GEE and Chao: both correct the raw sample
// distinct count upward for unseen values; we take the geometric mean so a
// wild value from either is damped, and clamp to [d, totalRows]. This plays
// the role the Adaptive Estimator (AE) plays in the paper — an adaptive
// sample-based distinct estimator for composite attributes.
func EstimateDistinct(c sampleCounts, sampleRows, totalRows int) float64 {
	if c.d == 0 {
		return 0
	}
	g := GEE(c, sampleRows, totalRows)
	ch := Chao(c)
	est := math.Sqrt(g * ch)
	if est < float64(c.d) {
		est = float64(c.d)
	}
	if est > float64(totalRows) {
		est = float64(totalRows)
	}
	return est
}

// EstimateDistinctRaw is EstimateDistinct over an explicit (d, f1, f2)
// frequency profile, for callers that build the profile themselves.
func EstimateDistinctRaw(d, f1, f2, sampleRows, totalRows int) float64 {
	return EstimateDistinct(sampleCounts{d: d, f1: f1, f2: f2}, sampleRows, totalRows)
}
