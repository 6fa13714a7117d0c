package main

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// median returns the middle value of vs (mean of the middle two for an
// even count); 0 for an empty slice. vs is not modified.
func median(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// quartileSpread is the distance between the first and third quartile of
// vs as a share of the median, with the quartiles Python's
// statistics.quantiles(vs, n=4) gives (exclusive method) — the spread the
// benchmark contract judges steadiness by. 0 when fewer than two values
// or a zero median.
func quartileSpread(vs []float64) float64 {
	n := len(vs)
	med := median(vs)
	if n < 2 || med == 0 {
		return 0
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	q := func(k int) float64 {
		j := min(max(k*(n+1)/4, 1), n-1)
		delta := k*(n+1) - 4*j // after clamping, as Python does
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return math.Abs(q(3)-q(1)) / math.Abs(med)
}

// percentile returns the nearest-rank p-quantile (0 < p ≤ 1) of an
// ascending-sorted sample.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(p*float64(len(sorted)))) - 1
	return sorted[min(max(i, 0), len(sorted)-1)]
}

// tailLadder are the percentiles a latency report may quote, ascending.
var tailLadder = []float64{0.90, 0.95, 0.99, 0.999}

// minBeyond is how many samples must lie beyond a quoted percentile for
// it to be more than the luck of a few slow requests.
const minBeyond = 10

// pickTail returns the highest percentile of the ladder that still has
// at least minBeyond samples beyond it in a sample of n, or ok=false when
// even the lowest rung does not (n < 100).
func pickTail(n int) (p float64, ok bool) {
	for _, c := range tailLadder {
		// Samples strictly beyond the nearest-rank index.
		if beyond := n - int(math.Ceil(c*float64(n))); beyond >= minBeyond {
			p, ok = c, true
		}
	}
	return p, ok
}

// latencySummary is how every timing distribution is reported: the
// median, the fixed p99 the issue's tables quote (only when the sample
// supports it), and the highest supported tail percentile with its label.
type latencySummary struct {
	N      int     `json:"n"`
	P50    float64 `json:"p50"`
	P99    float64 `json:"p99,omitempty"`
	TailP  float64 `json:"tail_p,omitempty"`
	Tail   float64 `json:"tail,omitempty"`
	Max    float64 `json:"max"`
	Failed int     `json:"failed,omitempty"`
}

// summarize reports samples (any order, any unit); a failed request has
// no sample, so it cannot flatter a percentile — callers count it in
// Failed and against every latency limit.
func summarize(samples []float64, failed int) latencySummary {
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	out := latencySummary{N: len(s), Failed: failed}
	if len(s) == 0 {
		return out
	}
	out.P50 = percentile(s, 0.5)
	out.Max = s[len(s)-1]
	if p, ok := pickTail(len(s)); ok {
		out.TailP, out.Tail = p, percentile(s, p)
		if p >= 0.99 {
			out.P99 = percentile(s, 0.99)
		}
	}
	return out
}

func (l latencySummary) String() string {
	if l.TailP == 0 {
		return fmt.Sprintf("n=%d p50=%.4g max=%.4g", l.N, l.P50, l.Max)
	}
	return fmt.Sprintf("n=%d p50=%.4g p%g=%.4g max=%.4g", l.N, l.P50, l.TailP*100, l.Tail, l.Max)
}

func ms(d time.Duration) float64  { return float64(d) / float64(time.Millisecond) }
func sec(d time.Duration) float64 { return d.Seconds() }
