package costmodel

import (
	"coradd/internal/cm"
	"coradd/internal/corridx"
	"coradd/internal/query"
	"coradd/internal/stats"
	"coradd/internal/storage"
	"coradd/internal/value"
)

// cmReadPages is the charge for reading a correlation map during a lookup.
// CMs are capped at 1 MB (cm.DefaultSpaceLimit) and usually far smaller;
// the model charges a small fixed page count rather than estimating each
// CM's exact size, which is noise at ranking time.
const cmReadPages = 4

// Aware is the correlation-aware cost model (Appendix A-2.2). It prices the
// clustered-prefix path exactly like the oblivious model but, in addition,
// prices a correlation-map path whose fragment count is *measured* on the
// relation synopsis: matching sample rows are located in the sort order of
// the candidate clustered key, mapped to clustered page buckets, and the
// distinct-bucket count is corrected for unseen buckets with the
// sample-based distinct estimator. Strong correlation between predicated
// attributes and the clustered key yields few buckets and a low cost; no
// correlation yields costs near a full scan — matching Figure 10's "real
// runtime" curve.
type Aware struct {
	St   *stats.Stats
	Disk storage.DiskParams
	// WithCM enables the CM path (CORADD always sets aside CM space, §5.4).
	WithCM bool

	// memo holds every estimate made so far: the same designs are
	// re-priced on every ILP-feedback iteration and every redesign.
	memo memo
}

// NewAware builds the model over st.
func NewAware(st *stats.Stats, disk storage.DiskParams) *Aware {
	return &Aware{St: st, Disk: disk, WithCM: true}
}

// Name implements Model.
func (m *Aware) Name() string { return "correlation-aware" }

// Estimate implements Model.
func (m *Aware) Estimate(d *MVDesign, q *query.Query) (float64, PathKind) {
	return m.memo.get(d, q, m.estimate)
}

func (m *Aware) estimate(d *MVDesign, q *query.Query) (float64, PathKind) {
	if !d.Covers(m.St, q) {
		return inf(), PathInfeasible
	}
	pages := float64(d.NumPages(m.St))
	height := float64(d.Height(m.St))
	seek, read := m.Disk.SeekCost, m.Disk.PageReadCost

	best := seek + pages*read // sequential scan
	kind := PathSeqScan

	if len(d.ClusterKey) > 0 {
		if c, ok := m.clusteredCost(d, q, pages, height); ok && c < best {
			best, kind = c, PathClustered
		}
		// Correlation indexes coexist with the free CM pool (§5.4 sets CM
		// space aside; corridx structure is what the budget pays for), so
		// both paths are priced and the best one wins.
		if len(d.CorrIdxs) > 0 {
			if c, ok := m.corrIdxCost(d, q, pages, height); ok && c < best {
				best, kind = c, PathCorrIdx
			}
		}
		if m.WithCM {
			if c, ok := m.cmCost(d, q, pages, height); ok && c < best {
				best, kind = c, PathCM
			}
		}
	}
	return best, kind
}

// clusteredCost prices the clustered-prefix path: fragments from the
// combinatorial walk, coverage measured on the synopsis over the used
// prefix predicates.
func (m *Aware) clusteredCost(d *MVDesign, q *query.Query, pages, height float64) (float64, bool) {
	frags, used := prefixWalk(m.St, d, q)
	if len(used) == 0 {
		return 0, false
	}
	coverage := m.sampleFraction(used)
	seek, read := m.Disk.SeekCost, m.Disk.PageReadCost
	return frags*height*seek + coverage*pages*read, true
}

// sampleFraction measures the fraction of synopsis rows matching all preds,
// floored at half a row. Column positions are resolved once, not per row.
func (m *Aware) sampleFraction(preds []*query.Predicate) float64 {
	sample := m.St.Sample
	if len(sample) == 0 {
		return 1
	}
	s := m.St.Rel.Schema
	var colBuf [8]int
	cols := colBuf[:0]
	for _, p := range preds {
		cols = append(cols, s.MustCol(p.Col))
	}
	n := 0
	for _, row := range sample {
		ok := true
		for i, p := range preds {
			if !p.Matches(row[cols[i]]) {
				ok = false
				break
			}
		}
		if ok {
			n++
		}
	}
	f := float64(n) / float64(len(sample))
	if floor := 0.5 / float64(len(sample)); f < floor {
		f = floor
	}
	return f
}

// cmCost prices the CM path. The CM key covers every predicated attribute;
// the lookup yields the clustered page buckets co-occurring with matching
// tuples. Bucket positions are inferred from the matching rows' ranks in
// the key-sorted synopsis; the distinct-bucket count is AE-corrected for
// buckets the synopsis missed.
func (m *Aware) cmCost(d *MVDesign, q *query.Query, pages, height float64) (float64, bool) {
	if len(q.Predicates) == 0 {
		return 0, false
	}
	sorted := m.sorted(d.ClusterKey)
	r := len(sorted)
	if r == 0 {
		return 0, false
	}
	bucketPages := float64(cm.DefaultClusterPagesPerBucket)
	numBuckets := pages / bucketPages
	if numBuckets < 1 {
		numBuckets = 1
	}
	// Locate matching rows in clustered order, map rank → bucket. The query
	// is compiled against the base schema once and reused across designs.
	cq := m.St.Compiled(q)
	freq := make(map[int]int)
	matched := 0
	for i, row := range sorted {
		if !cq.MatchesRow(row) {
			continue
		}
		matched++
		b := int(float64(i) / float64(r) * numBuckets)
		freq[b]++
	}
	if matched == 0 {
		// Below synopsis resolution: one bucket.
		freq[0] = 1
		matched = 1
	}
	// Population of matching rows in the full relation.
	sel := float64(matched) / float64(r)
	popMatched := sel * float64(m.St.NumRows())
	if popMatched < 1 {
		popMatched = 1
	}
	dBuckets := estimateBuckets(freq, matched, popMatched)
	if dBuckets > numBuckets {
		dBuckets = numBuckets
	}
	coverage := dBuckets * bucketPages / pages
	if coverage > 1 {
		coverage = 1
	}
	seek, read := m.Disk.SeekCost, m.Disk.PageReadCost
	cost := seek + float64(cmReadPages)*read + // read the CM itself
		dBuckets*height*seek + coverage*pages*read
	return cost, true
}

// corrIdxCost prices the correlation-index path of a candidate deploying
// CorrIdxSpecs: the target predicate is translated into host ranges whose
// heap footprint is predicted on the host-sorted synopsis with the same
// per-bucket trimming rule the built index applies (corridx.SampleIntervals),
// plus the mapping read and the outlier-tree probes. When a query
// predicates several index targets the cheapest single index is priced,
// matching the executor's one-index-per-plan choice.
func (m *Aware) corrIdxCost(d *MVDesign, q *query.Query, pages, height float64) (float64, bool) {
	host := d.ClusterKey[0]
	sorted := m.St.SortedSample([]int{host})
	r := len(sorted)
	if r == 0 {
		return 0, false
	}
	seek, read := m.Disk.SeekCost, m.Disk.PageReadCost
	best, found := 0.0, false
	for _, spec := range d.CorrIdxs {
		p := q.Predicate(m.St.Rel.Schema.Columns[spec.Target].Name)
		if p == nil {
			continue
		}
		ivs, outSample := corridx.SampleIntervals(sorted, spec.Target, host, spec.Width, p, corridx.Config{})
		covered := 0
		for _, iv := range ivs {
			covered += iv[1] - iv[0]
		}
		coverage := float64(covered) / float64(r)
		if floor := 0.5 / float64(r); coverage < floor {
			coverage = floor // below synopsis resolution: a sliver, not zero
		}
		if coverage > 1 {
			coverage = 1
		}
		frags := float64(len(ivs))
		if frags < 1 {
			frags = 1
		}
		mapPages := float64((corridx.MappingBytes(spec.EstEntries) + storage.PageSize - 1) / storage.PageSize)
		if mapPages < 1 {
			mapPages = 1
		}
		cost := seek + mapPages*read + // read the mapping itself
			frags*height*seek + coverage*pages*read
		if outSample > 0 || spec.EstOutlierFrac > 0 {
			// Probe the outlier tree (once per IN value), then fetch each
			// predicted outlier row as its own fragment — the pessimistic
			// shape the executor's accounting produces for scattered rows.
			descents := 1.0
			if p.Op == query.In {
				descents = float64(len(p.Set))
			}
			outPop := float64(outSample) / float64(r) * float64(m.St.NumRows())
			cost += descents*(seek+2*read) + outPop*(height*seek+read)
		}
		if !found || cost < best {
			best, found = cost, true
		}
	}
	return best, found
}

// estimateBuckets corrects the observed distinct-bucket count for unseen
// buckets using the sample-based distinct estimator over the bucket
// frequency profile.
func estimateBuckets(freq map[int]int, sampleRows int, totalRows float64) float64 {
	var c struct{ d, f1, f2 int }
	c.d = len(freq)
	for _, n := range freq {
		switch n {
		case 1:
			c.f1++
		case 2:
			c.f2++
		}
	}
	return stats.EstimateDistinctRaw(c.d, c.f1, c.f2, sampleRows, int(totalRows))
}

// sorted returns the synopsis sorted by key, shared through the statistics
// cache (the same clustered keys recur across model instances).
func (m *Aware) sorted(key []int) []value.Row {
	return m.St.SortedSample(key)
}

func inf() float64 { return 1e30 }
