package stats

import "sort"

// Correlation is one discovered soft functional dependency.
type Correlation struct {
	// From and To are column positions; the dependency is From → To.
	From, To int
	// Strength is |From| / |From,To| (CORDS; 1 = perfect dependency).
	Strength float64
}

// DiscoverOptions tunes DiscoverCorrelations.
type DiscoverOptions struct {
	// MinStrength drops weak dependencies (default 0.3: below that, a CM
	// on From scatters across too many To values to pay off).
	MinStrength float64
	// MaxFromDistinctFrac prunes determinant columns with too many
	// distinct values relative to the row count (default 0.5): a
	// quasi-unique column trivially "determines" everything but indexes
	// over it cannot exploit co-occurrence. CORDS applies the same kind of
	// pruning before sampling pairs.
	MaxFromDistinctFrac float64
}

// DiscoverCorrelations is the correlation-discovery pass of the paper's
// statistics stage (Figure 1): it scans every ordered column pair,
// estimates the dependency strength from the synopsis, prunes trivial
// determinants, and returns the surviving dependencies sorted by strength
// (strongest first, ties by column order). BHUNT and CORDS perform this
// same sampling-based search; CORADD consumes the result when scoring
// clustered keys against predicated attributes.
func (st *Stats) DiscoverCorrelations(opts DiscoverOptions) []Correlation {
	if opts.MinStrength <= 0 {
		opts.MinStrength = 0.3
	}
	if opts.MaxFromDistinctFrac <= 0 {
		opts.MaxFromDistinctFrac = 0.5
	}
	n := len(st.Rel.Schema.Columns)
	rows := float64(st.NumRows())
	var out []Correlation
	for from := 0; from < n; from++ {
		if st.colDistinct[from] > opts.MaxFromDistinctFrac*rows {
			continue // quasi-unique determinant: trivial, unusable
		}
		for to := 0; to < n; to++ {
			if to == from {
				continue
			}
			if st.colDistinct[to] <= 1 {
				continue // constant columns are determined by everything
			}
			s := st.Strength([]int{from}, []int{to})
			if s < opts.MinStrength {
				continue
			}
			// A dependency is only informative if knowing From narrows To:
			// if To has d values and From→To were random, the expected
			// strength is ≈ 1/d; demand a clear margin above that noise
			// floor.
			if s < 3.0/st.colDistinct[to] && s < 0.95 {
				continue
			}
			out = append(out, Correlation{From: from, To: to, Strength: s})
		}
	}
	sort.SliceStable(out, func(i, j int) bool {
		if out[i].Strength != out[j].Strength {
			return out[i].Strength > out[j].Strength
		}
		if out[i].From != out[j].From {
			return out[i].From < out[j].From
		}
		return out[i].To < out[j].To
	})
	return out
}
