package stats

import (
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
	// exact per-value frequencies when the column is narrow enough.
	exact map[value.V]int
	// otherwise equi-width buckets over [min, max].
	min, max value.V
	width    value.V
	buckets  []int
}

// buildHistogram constructs the histogram from a value→count map.
func buildHistogram(freq map[value.V]int, totalRows int) *Histogram {
	h := &Histogram{totalRows: totalRows}
	if len(freq) <= maxExactHistogram {
		h.exact = freq
		return h
	}
	first := true
	for v := range freq {
		if first {
			h.min, h.max = v, v
			first = false
			continue
		}
		if v < h.min {
			h.min = v
		}
		if v > h.max {
			h.max = v
		}
	}
	nb := 1024
	h.buckets = make([]int, nb)
	span := h.max - h.min + 1
	h.width = (span + value.V(nb) - 1) / value.V(nb)
	if h.width < 1 {
		h.width = 1
	}
	for v, n := range freq {
		h.buckets[int((v-h.min)/h.width)] += n
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
	if h.exact != nil {
		if hi-lo < value.V(len(h.exact)) {
			// Narrow interval: walk the values in it.
			n := 0
			for v := lo; v <= hi; v++ {
				n += h.exact[v]
			}
			return float64(n)
		}
		n := 0
		for v, c := range h.exact {
			if v >= lo && v <= hi {
				n += c
			}
		}
		return float64(n)
	}
	if hi < h.min || lo > h.max {
		return 0
	}
	if lo < h.min {
		lo = h.min
	}
	if hi > h.max {
		hi = h.max
	}
	bLo := int((lo - h.min) / h.width)
	bHi := int((hi - h.min) / h.width)
	n := 0.0
	for b := bLo; b <= bHi && b < len(h.buckets); b++ {
		cnt := float64(h.buckets[b])
		// Fractional coverage of the boundary buckets, assuming uniformity
		// within a bucket.
		bucketLo := h.min + value.V(b)*h.width
		bucketHi := bucketLo + h.width - 1
		cover := 1.0
		if lo > bucketLo || hi < bucketHi {
			span := float64(h.width)
			effLo, effHi := bucketLo, bucketHi
			if lo > effLo {
				effLo = lo
			}
			if hi < effHi {
				effHi = hi
			}
			cover = float64(effHi-effLo+1) / span
		}
		n += cnt * cover
	}
	return n
}
