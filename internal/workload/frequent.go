package workload

import (
	"sort"
	"strings"
)

// FrequentSet is one frequent predicate-column set mined from the
// template table: a set of columns that co-occur as predicates in a
// large enough share of the recent (decayed) query mix. This is the
// Aouiche & Darmont idea — mine the query log for the column groups
// worth materializing for — applied to the monitor's template table,
// whose decayed rates already are the "recent log" a fresh mining pass
// would reconstruct.
type FrequentSet struct {
	// Cols are the predicate columns, sorted ascending.
	Cols []string
	// Share is the set's support: the decayed-rate share of templates
	// whose predicates include every column of the set.
	Share float64
	// Templates counts the live templates supporting the set.
	Templates int
}

// FrequentSets mines frequent predicate-column sets from the template
// table by Apriori levelwise search: items are predicate column names,
// a template's weight is its decayed rate at the current clock, and a
// set is frequent when its supporting templates carry at least minShare
// of the total rate (minShare ≤ 0 means 0.1). maxSize caps set
// cardinality (≤ 0 means 3). Support is downward closed, so each level
// extends the previous one's survivors only.
//
// The result is deterministic for a given observation history and
// clock: sets are ranked by share descending, then size descending
// (the more specific set first among equals — it pins down a tighter
// candidate group), then lexicographically.
func (m *Monitor) FrequentSets(minShare float64, maxSize int) []FrequentSet {
	if minShare <= 0 {
		minShare = 0.1
	}
	if maxSize <= 0 {
		maxSize = 3
	}
	t := m.now()
	m.mu.Lock()
	defer m.mu.Unlock()

	// Template item sets and weights, in first-seen order.
	total := 0.0
	type row struct {
		cols map[string]bool
		rate float64
	}
	rows := make([]row, 0, len(m.order))
	for _, tp := range m.order {
		r := tp.rateAt(t, m.cfg.HalfLife)
		total += r
		if r <= 0 {
			continue
		}
		cols := make(map[string]bool, len(tp.rep.Predicates))
		for i := range tp.rep.Predicates {
			cols[tp.rep.Predicates[i].Col] = true
		}
		rows = append(rows, row{cols: cols, rate: r})
	}
	if total <= 0 {
		return nil
	}

	support := func(set []string) (float64, int) {
		rate, n := 0.0, 0
		for _, rw := range rows {
			ok := true
			for _, c := range set {
				if !rw.cols[c] {
					ok = false
					break
				}
			}
			if ok {
				rate += rw.rate
				n++
			}
		}
		return rate / total, n
	}

	// Level 1: frequent singletons, which also seed the extension alphabet.
	universe := map[string]bool{}
	for _, rw := range rows {
		for c := range rw.cols {
			universe[c] = true
		}
	}
	alphabet := make([]string, 0, len(universe))
	for c := range universe {
		alphabet = append(alphabet, c)
	}
	sort.Strings(alphabet)

	var out []FrequentSet
	var level [][]string
	for _, c := range alphabet {
		if sh, n := support([]string{c}); sh >= minShare {
			out = append(out, FrequentSet{Cols: []string{c}, Share: sh, Templates: n})
			level = append(level, []string{c})
		}
	}
	freqSingle := map[string]bool{}
	for _, s := range level {
		freqSingle[s[0]] = true
	}

	// Levelwise extension: every frequent k-set in sorted form is a
	// frequent (k−1)-prefix (downward closure) extended by a frequent
	// singleton beyond its last item, so this enumeration is exhaustive.
	for size := 2; size <= maxSize && len(level) > 0; size++ {
		var next [][]string
		for _, prefix := range level {
			last := prefix[len(prefix)-1]
			for _, c := range alphabet {
				if c <= last || !freqSingle[c] {
					continue
				}
				set := append(append([]string(nil), prefix...), c)
				if sh, n := support(set); sh >= minShare {
					out = append(out, FrequentSet{Cols: set, Share: sh, Templates: n})
					next = append(next, set)
				}
			}
		}
		level = next
	}

	sort.SliceStable(out, func(i, j int) bool {
		if out[i].Share != out[j].Share {
			return out[i].Share > out[j].Share
		}
		if len(out[i].Cols) != len(out[j].Cols) {
			return len(out[i].Cols) > len(out[j].Cols)
		}
		return strings.Join(out[i].Cols, ",") < strings.Join(out[j].Cols, ",")
	})
	return out
}
