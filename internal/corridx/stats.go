package corridx

import (
	"cmp"
	"slices"

	"coradd/internal/btree"
	"coradd/internal/cm"
	"coradd/internal/query"
	"coradd/internal/value"
)

// This file estimates corridx behaviour from a host-sorted row sample
// without building anything — the designer's cost model and candidate
// generator price hypothetical indexes the same way the paper's models
// price hypothetical MVs: from the statistics synopsis only. The
// estimators reuse the exact per-bucket trimming rule of Build, so the
// predicted coverage, fragment and outlier profile mirrors what the built
// index will do.

// BucketOf buckets a target value exactly like Build: the shared cm
// bucketing (floor division, stable for negatives), so the candidate
// gate's cm pair statistics and the built index agree by construction.
func BucketOf(v, width value.V) value.V { return cm.BucketValue(v, width) }

// BucketMayMatch reports whether target bucket b (of the given width)
// could contain a value matching pred.
func BucketMayMatch(b, width value.V, pred *query.Predicate) bool {
	return cm.BucketMayMatch(b, width, pred)
}

// MappingBytes predicts the mapping size for n entries.
func MappingBytes(n int) int64 { return int64(n) * entryBytes }

// EstimateBytes predicts the total index size for a mapping of entries
// buckets and outlierRows outlier-tree rows keyed with keyBytes-wide
// target values. Matches the accounting of a built Index.
func EstimateBytes(entries, outlierRows, keyBytes int) int64 {
	b := MappingBytes(entries)
	if outlierRows > 0 {
		b += btree.EstimateBytes(outlierRows, keyBytes)
	}
	return b
}

// SampleStats learns mapping statistics from rows sorted by hostCol: the
// number of mapping entries (distinct target buckets), the fraction of
// rows the per-bucket trimming rule would exile to the outlier tree, and
// the read amplification — how many rows a translated host range covers
// per row it actually matches (1 means the mapping is as selective as the
// predicate; a many-to-one dependency like city→region yields a huge
// value because one city's "range" spans its whole region).
func SampleStats(sorted []value.Row, targetCol, hostCol int, cfg Config) (entries int, outlierFrac, amplification float64) {
	if cfg.TargetWidth < 1 {
		cfg.TargetWidth = 1
	}
	groups := bucketGroups(sorted, targetCol, cfg.TargetWidth, nil)
	cfg = normalize(cfg)
	outliers, covered, matched := 0, 0, 0
	for _, ranks := range groups {
		lo, hi := trimBucket(ranks, cfg, func(i int) value.V { return sorted[i][hostCol] })
		outliers += len(ranks) - (hi - lo)
		covered += ranks[hi-1] + 1 - ranks[lo]
		matched += hi - lo
	}
	if len(sorted) > 0 {
		outlierFrac = float64(outliers) / float64(len(sorted))
	}
	amplification = 1
	if matched > 0 {
		amplification = float64(covered) / float64(matched)
	}
	return len(groups), outlierFrac, amplification
}

// SampleIntervals predicts the lookup footprint of pred over rows sorted
// by the host column: the merged half-open rank intervals [lo,hi) the
// translated host ranges would cover (per matching bucket, after the same
// trimming rule Build applies, measured in host-value space via hostCol)
// and the number of sample rows that would be answered from the outlier
// tree instead.
func SampleIntervals(sorted []value.Row, targetCol, hostCol int, width value.V, pred *query.Predicate, cfg Config) (intervals [][2]int, outlierRows int) {
	if width < 1 {
		width = 1
	}
	groups := bucketGroups(sorted, targetCol, width, pred)
	cfg = normalize(cfg)
	for _, ranks := range groups {
		lo, hi := trimBucket(ranks, cfg, func(i int) value.V { return sorted[i][hostCol] })
		outlierRows += len(ranks) - (hi - lo)
		intervals = append(intervals, [2]int{ranks[lo], ranks[hi-1] + 1})
	}
	slices.SortFunc(intervals, func(a, b [2]int) int {
		if c := cmp.Compare(a[0], b[0]); c != 0 {
			return c
		}
		return cmp.Compare(a[1], b[1])
	})
	merged := intervals[:0]
	for _, iv := range intervals {
		if n := len(merged); n > 0 && iv[0] <= merged[n-1][1] {
			if iv[1] > merged[n-1][1] {
				merged[n-1][1] = iv[1]
			}
			continue
		}
		merged = append(merged, iv)
	}
	return merged, outlierRows
}

// bucketGroups collects, per target bucket, the ascending rank lists of
// rows whose bucket may match pred (nil pred selects every bucket),
// returned in ascending bucket order for determinism.
func bucketGroups(sorted []value.Row, targetCol int, width value.V, pred *query.Predicate) [][]int {
	byBucket := make(map[value.V][]int)
	for i, row := range sorted {
		b := BucketOf(row[targetCol], width)
		if pred != nil && !BucketMayMatch(b, width, pred) {
			continue
		}
		byBucket[b] = append(byBucket[b], i)
	}
	buckets := make([]value.V, 0, len(byBucket))
	for b := range byBucket {
		buckets = append(buckets, b)
	}
	slices.Sort(buckets)
	out := make([][]int, len(buckets))
	for i, b := range buckets {
		out[i] = byBucket[b]
	}
	return out
}

// normalize fills zero Config fields with defaults, as Build does.
func normalize(cfg Config) Config {
	if cfg.MaxOutlierFrac == 0 {
		cfg.MaxOutlierFrac = DefaultMaxOutlierFrac
	}
	if cfg.MinShrink == 0 {
		cfg.MinShrink = DefaultMinShrink
	}
	return cfg
}
