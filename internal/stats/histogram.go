package stats

import (
	"math"

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
	// width is ceil((max-min+1)/nb), in uint64 offsets from min so a column
	// spanning the whole int64 range does not overflow.
	nb := 1024
	h.buckets = make([]int, nb)
	h.width = value.V((uint64(h.max)-uint64(h.min))/uint64(nb) + 1)
	for v, n := range freq {
		h.buckets[(uint64(v)-uint64(h.min))/uint64(h.width)] += n
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
	if h.exact != nil {
		if uint64(hi)-uint64(lo) < uint64(len(h.exact)) {
			// Narrow interval: walk the values in it (v == hi ends the walk,
			// so hi = MaxInt64 does not wrap).
			n := 0
			for v := lo; ; v++ {
				n += h.exact[v]
				if v == hi {
					break
				}
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
