package costmodel

import (
	"math/bits"

	"coradd/internal/cm"
	"coradd/internal/corridx"
	"coradd/internal/exec"
	"coradd/internal/query"
	"coradd/internal/stats"
	"coradd/internal/storage"
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
}

// NewAware builds the model over st.
func NewAware(st *stats.Stats, disk storage.DiskParams) *Aware {
	return &Aware{St: st, Disk: disk, WithCM: true}
}

// Name implements Model.
func (m *Aware) Name() string { return "correlation-aware" }

// Estimate implements Model.
func (m *Aware) Estimate(d *MVDesign, q *query.Query) (float64, exec.PlanKind) {
	mb := m.St.MatchBits(q)
	if !d.covers(mb) {
		return inf(), exec.SeqScan
	}
	pages := float64(d.NumPages(m.St))
	height := float64(d.Height(m.St))
	seek, read := m.Disk.SeekCost, m.Disk.PageReadCost

	best := seek + pages*read // sequential scan
	kind := exec.SeqScan

	if len(d.ClusterKey) > 0 {
		if c, ok := m.clusteredCost(d, q, mb, pages, height); ok && c < best {
			best, kind = c, exec.ClusteredScan
		}
		// Correlation indexes coexist with the free CM pool (§5.4 sets CM
		// space aside; corridx structure is what the budget pays for), so
		// both paths are priced and the best one wins.
		if len(d.CorrIdxs) > 0 {
			if c, ok := m.corrIdxCost(d, q, pages, height); ok && c < best {
				best, kind = c, exec.CorrIdxScan
			}
		}
		if m.WithCM {
			if c, ok := m.cmCost(d, q, mb, pages, height); ok && c < best {
				best, kind = c, exec.CMScan
			}
		}
	}
	return best, kind
}

// clusteredCost prices the clustered-prefix path: fragments from the
// combinatorial walk, coverage measured on the synopsis over the used
// prefix predicates.
func (m *Aware) clusteredCost(d *MVDesign, q *query.Query, mb *stats.Match, pages, height float64) (float64, bool) {
	var buf [8]*query.Predicate
	frags, used := prefixWalk(m.St, d, q, buf[:0])
	if len(used) == 0 {
		return 0, false
	}
	coverage := mb.Fraction(q, used...)
	seek, read := m.Disk.SeekCost, m.Disk.PageReadCost
	return frags*height*seek + coverage*pages*read, true
}

// cmCost prices the CM path. The CM key covers every predicated attribute;
// the lookup yields the clustered page buckets co-occurring with matching
// tuples. Bucket positions are inferred from the matching rows' ranks in
// the key-sorted synopsis; the distinct-bucket count is AE-corrected for
// buckets the synopsis missed.
func (m *Aware) cmCost(d *MVDesign, q *query.Query, mb *stats.Match, pages, height float64) (float64, bool) {
	if len(q.Predicates) == 0 {
		return 0, false
	}
	rank := m.St.Ranks(d.ClusterKey)
	r := len(rank)
	if r == 0 {
		return 0, false
	}
	bucketPages := float64(cm.DefaultClusterPagesPerBucket)
	numBuckets := pages / bucketPages
	if numBuckets < 1 {
		numBuckets = 1
	}
	// Scatter the matching rows to their ranks in clustered order, then
	// read the ranks back in order, mapping each to its bucket and
	// profiling the buckets seen (d, f1, f2). Buckets are non-decreasing in
	// rank, so each bucket's matches form one run.
	byRank := make([]uint64, len(mb.All))
	for w, x := range mb.All {
		for ; x != 0; x &= x - 1 {
			i := rank[w<<6|bits.TrailingZeros64(x)]
			byRank[i>>6] |= 1 << (i & 63)
		}
	}
	var prof stats.RunProfile
	matched, bucket := 0, -1
	for w, x := range byRank {
		for ; x != 0; x &= x - 1 {
			matched++
			b := int(float64(w<<6|bits.TrailingZeros64(x)) / float64(r) * numBuckets)
			prof.Add(b != bucket)
			bucket = b
		}
	}
	if matched == 0 {
		// Below synopsis resolution: one bucket.
		prof.Add(true)
		matched = 1
	}
	// Population of matching rows in the full relation.
	sel := float64(matched) / float64(r)
	popMatched := sel * float64(m.St.NumRows())
	if popMatched < 1 {
		popMatched = 1
	}
	// Correct the observed bucket count for buckets the synopsis missed.
	dBuckets := stats.EstimateDistinctRaw(prof.D, prof.F1, prof.F2, matched, int(popMatched))
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

func inf() float64 { return 1e30 }
