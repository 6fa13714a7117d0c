package stats

import (
	"math"
	"slices"

	"coradd/internal/query"
	"coradd/internal/value"
)

// maxExactHistogram is the distinct-value count up to which a histogram
// stores exact per-value frequencies; above it, equi-width buckets are used.
const maxExactHistogram = 4096

// Histogram summarizes one column's value distribution for predicate
// selectivity estimation. Built from a full scan at statistics-collection
// time ("the vectors are constructed from histograms we build by scanning
// the database", §4.1.1).
type Histogram struct {
	totalRows int
	// When the column is narrow enough: its distinct values, ascending, and
	// cum[i], the number of rows holding a value below vals[i] (cum has one
	// more entry, the row count).
	vals []value.V
	cum  []int
	// Otherwise (buckets != nil) equi-width buckets over [min, max].
	min, max value.V
	width    value.V
	buckets  []int
}

// buildHistogram constructs the histogram from a column's distinct values
// in ascending order and their counts (value.Counts).
func buildHistogram(vals []value.V, counts []int, totalRows int) *Histogram {
	h := &Histogram{totalRows: totalRows}
	if len(vals) <= maxExactHistogram {
		h.vals, h.cum = vals, make([]int, len(vals)+1)
		for i, c := range counts {
			h.cum[i+1] = h.cum[i] + c
		}
		return h
	}
	h.min, h.max = vals[0], vals[len(vals)-1]
	// width is ceil((max-min+1)/nb), in uint64 offsets from min so a column
	// spanning the whole int64 range does not overflow.
	nb := 1024
	h.buckets = make([]int, nb)
	h.width = value.V((uint64(h.max)-uint64(h.min))/uint64(nb) + 1)
	for i, v := range vals {
		h.buckets[(uint64(v)-uint64(h.min))/uint64(h.width)] += counts[i]
	}
	return h
}

// Selectivity estimates the fraction of rows whose value satisfies p.
func (h *Histogram) Selectivity(p *query.Predicate) float64 {
	if h.totalRows == 0 {
		return 0
	}
	switch p.Op {
	case query.Eq:
		return h.rangeCount(p.Lo, p.Lo) / float64(h.totalRows)
	case query.Range:
		return h.rangeCount(p.Lo, p.Hi) / float64(h.totalRows)
	case query.In:
		n := 0.0
		for _, v := range p.Set {
			n += h.rangeCount(v, v)
		}
		return n / float64(h.totalRows)
	default:
		return 1
	}
}

// rangeCount estimates the number of rows with value in [lo,hi].
func (h *Histogram) rangeCount(lo, hi value.V) float64 {
	if lo > hi {
		return 0
	}
	if h.buckets == nil {
		i, _ := slices.BinarySearch(h.vals, lo)
		j, found := slices.BinarySearch(h.vals, hi)
		if found {
			j++
		}
		return float64(h.cum[j] - h.cum[i])
	}
	if hi < h.min || lo > h.max {
		return 0
	}
	lo, hi = max(lo, h.min), min(hi, h.max)
	// Bucket bounds as uint64 offsets from min, like the bucket index.
	oLo, oHi, w := uint64(lo)-uint64(h.min), uint64(hi)-uint64(h.min), uint64(h.width)
	n := 0.0
	for b := oLo / w; b <= oHi/w && b < uint64(len(h.buckets)); b++ {
		cnt := float64(h.buckets[b])
		// Fractional coverage of the boundary buckets, assuming uniformity
		// within a bucket.
		bucketLo := b * w
		bucketHi := bucketLo + w - 1
		if bucketHi < bucketLo {
			bucketHi = math.MaxUint64 // the last bucket of a full-range column
		}
		cover := 1.0
		if oLo > bucketLo || oHi < bucketHi {
			cover = float64(min(oHi, bucketHi)-max(oLo, bucketLo)+1) / float64(w)
		}
		n += cnt * cover
	}
	return n
}
