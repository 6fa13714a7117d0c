// Package corridx implements a correlation-exploiting secondary index in
// the style of Hermit's TRS (Wu et al., "Designing Succinct Secondary
// Indexing Mechanism by Exploiting Column Correlations", SIGMOD 2019): a
// predicate on a target column A is answered by translating it — through a
// bucketed range mapping learned from the data — into value ranges on a
// correlated host column B that leads the relation's clustered key, plus an
// explicit outlier B+Tree for the rows that break the mapping.
//
// Where a dense secondary B+Tree stores one entry per tuple, the mapping
// stores one [hostLo, hostHi] interval per distinct (bucketed) target value
// and the outlier tree only the rows trimmed out of their bucket's core
// interval, so a strong correlation shrinks the index by orders of
// magnitude at equal lookup quality. With no correlation the learned
// intervals cover most of the host domain and lookups degrade toward a
// scan — never toward a wrong answer: every row is either inside its
// bucket's core interval (found by the translated host range) or in the
// outlier tree (found by the probe), which the equivalence property tests
// exercise.
package corridx

import (
	"cmp"
	"fmt"
	"slices"

	"coradd/internal/btree"
	"coradd/internal/query"
	"coradd/internal/storage"
	"coradd/internal/value"
)

// entryBytes models the on-disk width of one mapping entry: bucketed
// target value + host interval bounds + slot bookkeeping.
const entryBytes = 8 + 8 + 8 + 4

// DefaultMaxOutlierFrac is the per-bucket trimming budget: at most this
// fraction of a bucket's rows may be exiled to the outlier tree.
const DefaultMaxOutlierFrac = 0.05

// DefaultMinShrink is how much trimming must shrink a bucket's host
// interval (relative to the untrimmed [min,max] width) to be worth the
// outlier entries. Perfectly correlated buckets trim nothing and carry no
// outliers at all.
const DefaultMinShrink = 0.5

// Config tunes Build.
type Config struct {
	// TargetWidth buckets target values like cm.CM key widths: width 1
	// stores exact values, width w truncates to floor(v/w).
	TargetWidth value.V
	// MaxOutlierFrac caps the fraction of each bucket's rows trimmed into
	// the outlier tree (0 selects DefaultMaxOutlierFrac; negative disables
	// trimming).
	MaxOutlierFrac float64
	// MinShrink is the minimum relative host-interval shrink that justifies
	// trimming a bucket (0 selects DefaultMinShrink).
	MinShrink float64
}

// DefaultConfig returns the standard build parameters.
func DefaultConfig() Config {
	return Config{TargetWidth: 1, MaxOutlierFrac: DefaultMaxOutlierFrac, MinShrink: DefaultMinShrink}
}

// mapEntry is one learned bucket: target bucket → inclusive host interval
// covering the bucket's core (non-outlier) rows.
type mapEntry struct {
	bucket         value.V
	hostLo, hostHi value.V
}

// Index is an immutable correlation index over one relation.
type Index struct {
	// TargetCol is the predicated column A the index serves.
	TargetCol int
	// HostCol is the correlated column B the mapping translates into; it
	// must be the leading clustered-key column of the indexed relation.
	HostCol int
	// TargetWidth is the bucketing width applied to target values.
	TargetWidth value.V

	entries []mapEntry // sorted by bucket
	// Outliers indexes the trimmed rows by exact target value (nil when the
	// mapping is exact).
	Outliers    *btree.Tree
	numOutliers int
}

// Build learns the index for rel over target column targetCol. The
// relation must be clustered with a non-empty ClusterKey; the host column
// is its leading attribute (host ranges translate to contiguous heap runs
// only under that clustering).
func Build(rel *storage.Relation, targetCol int, cfg Config) (*Index, error) {
	if len(rel.ClusterKey) == 0 {
		return nil, fmt.Errorf("corridx: relation %s has no clustered key to host the mapping", rel.Name)
	}
	host := rel.ClusterKey[0]
	if host == targetCol {
		return nil, fmt.Errorf("corridx: target column is the clustered lead; use the clustered index")
	}
	if cfg.TargetWidth < 1 {
		cfg.TargetWidth = 1
	}
	if cfg.MaxOutlierFrac == 0 {
		cfg.MaxOutlierFrac = DefaultMaxOutlierFrac
	}
	if cfg.MinShrink == 0 {
		cfg.MinShrink = DefaultMinShrink
	}
	idx := &Index{TargetCol: targetCol, HostCol: host, TargetWidth: cfg.TargetWidth}

	// Collect (target bucket, host value, rid) and group by bucket. The
	// sort is by (bucket, host) so each bucket's host values come out
	// ordered for the shortest-window trim.
	type triple struct {
		bucket, host value.V
		rid          int32
	}
	triples := make([]triple, len(rel.Rows))
	for i, row := range rel.Rows {
		triples[i] = triple{bucket: BucketOf(row[targetCol], cfg.TargetWidth), host: row[host], rid: int32(i)}
	}
	// The comparisons are spelled out: on a chrono-loaded fact the triples
	// are nearly in order already and the sort is all comparator calls,
	// where chained cmp.Compare measures ~15 % slower.
	slices.SortFunc(triples, func(a, b triple) int {
		switch {
		case a.bucket != b.bucket:
			if a.bucket < b.bucket {
				return -1
			}
			return 1
		case a.host != b.host:
			if a.host < b.host {
				return -1
			}
			return 1
		}
		return cmp.Compare(a.rid, b.rid)
	})

	var outliers []int32
	for lo := 0; lo < len(triples); {
		hi := lo
		for hi < len(triples) && triples[hi].bucket == triples[lo].bucket {
			hi++
		}
		group := triples[lo:hi]
		coreLo, coreHi := trimBucket(group, cfg, func(t triple) value.V { return t.host })
		idx.entries = append(idx.entries, mapEntry{
			bucket: group[0].bucket,
			hostLo: group[coreLo].host,
			hostHi: group[coreHi-1].host,
		})
		for _, t := range group[:coreLo] {
			outliers = append(outliers, t.rid)
		}
		for _, t := range group[coreHi:] {
			outliers = append(outliers, t.rid)
		}
		lo = hi
	}
	if len(outliers) > 0 {
		keys := make([]value.V, len(outliers))
		entries := make([]btree.Entry, len(outliers))
		for i, rid := range outliers {
			keys[i] = rel.Rows[rid][targetCol]
			entries[i] = btree.Entry{Key: keys[i : i+1 : i+1], RID: rid}
		}
		idx.numOutliers = len(outliers)
		idx.Outliers = btree.Build(entries, rel.Schema.Columns[targetCol].ByteSize)
	}
	return idx, nil
}

// trimBucket picks the core window [coreLo,coreHi) of a bucket's
// host-sorted rows: the shortest host-value window keeping at least
// (1 - MaxOutlierFrac) of the rows, adopted only when it shrinks the host
// interval by MinShrink. get extracts the host value (generic so tests can
// exercise the window search directly).
func trimBucket[T any](group []T, cfg Config, get func(T) value.V) (coreLo, coreHi int) {
	n := len(group)
	coreLo, coreHi = 0, n
	if cfg.MaxOutlierFrac <= 0 || n < 2 {
		return coreLo, coreHi
	}
	keep := n - int(float64(n)*cfg.MaxOutlierFrac)
	if keep < 1 {
		keep = 1
	}
	if keep >= n {
		return coreLo, coreHi
	}
	full := get(group[n-1]) - get(group[0])
	if full <= 0 {
		return coreLo, coreHi
	}
	bestLo, bestWidth := 0, full
	for lo := 0; lo+keep <= n; lo++ {
		w := get(group[lo+keep-1]) - get(group[lo])
		if w < bestWidth {
			bestWidth = w
			bestLo = lo
		}
	}
	if float64(bestWidth) > (1-cfg.MinShrink)*float64(full) {
		return coreLo, coreHi // trimming buys too little; keep everything
	}
	return bestLo, bestLo + keep
}

// NumEntries is the mapping size in buckets.
func (x *Index) NumEntries() int { return len(x.entries) }

// NumOutliers is the number of rows exiled to the outlier tree.
func (x *Index) NumOutliers() int { return x.numOutliers }

// Bytes is the index's total on-disk size: mapping entries plus the
// outlier tree.
func (x *Index) Bytes() int64 {
	n := int64(len(x.entries)) * entryBytes
	if x.Outliers != nil {
		n += x.Outliers.Bytes()
	}
	return n
}

// Pages is the mapping's page count (minimum 1; the outlier tree carries
// its own page accounting).
func (x *Index) Pages() int {
	p := int((int64(len(x.entries))*entryBytes + storage.PageSize - 1) / storage.PageSize)
	if p < 1 {
		p = 1
	}
	return p
}

// HostRange is one inclusive host-value interval a lookup must scan.
type HostRange struct{ Lo, Hi value.V }

// Translate converts a predicate on the target column into merged host
// ranges: the union of the core intervals of every bucket that may contain
// a matching value. Bucketing introduces false positives (callers re-check
// predicates on the scanned rows) but no false negatives for non-outlier
// rows.
func (x *Index) Translate(pred *query.Predicate) []HostRange {
	var ranges []HostRange
	for i := range x.entries {
		e := &x.entries[i]
		if !BucketMayMatch(e.bucket, x.TargetWidth, pred) {
			continue
		}
		ranges = append(ranges, HostRange{Lo: e.hostLo, Hi: e.hostHi})
	}
	slices.SortFunc(ranges, func(a, b HostRange) int {
		if c := cmp.Compare(a.Lo, b.Lo); c != 0 {
			return c
		}
		return cmp.Compare(a.Hi, b.Hi)
	})
	// Merge overlapping and touching intervals (values are integers, so
	// [30,39] and [40,49] form one contiguous run).
	merged := ranges[:0]
	for _, r := range ranges {
		if n := len(merged); n > 0 && r.Lo <= merged[n-1].Hi+1 {
			if r.Hi > merged[n-1].Hi {
				merged[n-1].Hi = r.Hi
			}
			continue
		}
		merged = append(merged, r)
	}
	return merged
}

// OutlierRIDs returns the RIDs of outlier rows that may match pred,
// together with the outlier-tree traversal I/O. IN predicates descend once
// per value; equality and range descend once.
func (x *Index) OutlierRIDs(pred *query.Predicate) ([]int32, storage.IOStats) {
	var io storage.IOStats
	if x.Outliers == nil {
		return nil, io
	}
	if pred.Op == query.In {
		var rids []int32
		for _, v := range pred.Set {
			r, rio := x.Outliers.RangeRIDs([]value.V{v}, []value.V{v})
			rids = append(rids, r...)
			io.Add(rio)
		}
		return rids, io
	}
	lo, hi := pred.Bounds()
	rids, rio := x.Outliers.RangeRIDs([]value.V{lo}, []value.V{hi})
	io.Add(rio)
	return rids, io
}
