package ssb

import (
	"hash/fnv"
	"slices"
	"testing"

	"coradd/internal/stats"
)

func smallConfig() Config {
	return Config{Rows: 30000, Customers: 900, Suppliers: 150, Parts: 600, Seed: 3}
}

func TestGenerateDeterministic(t *testing.T) {
	a := Generate(smallConfig())
	b := Generate(smallConfig())
	if a.NumRows() != b.NumRows() {
		t.Fatal("row counts differ")
	}
	for i := range a.Rows {
		if !slices.Equal(a.Rows[i], b.Rows[i]) {
			t.Fatal("same seed produced different data")
		}
	}
}

func TestHierarchiesHold(t *testing.T) {
	rel := Generate(smallConfig())
	s := rel.Schema
	for _, row := range rel.Rows {
		city, nation, region := row[s.MustCol(ColCCity)], row[s.MustCol(ColCNation)], row[s.MustCol(ColCRegion)]
		if city/10 != nation || nation/5 != region {
			t.Fatalf("customer geography broken: city=%d nation=%d region=%d", city, nation, region)
		}
		brand, cat, mfgr := row[s.MustCol(ColPBrand)], row[s.MustCol(ColPCategory)], row[s.MustCol(ColPMfgr)]
		if brand/40 != cat || cat/5 != mfgr {
			t.Fatalf("product hierarchy broken: brand=%d cat=%d mfgr=%d", brand, cat, mfgr)
		}
		date, year, ym := row[s.MustCol(ColOrderDate)], row[s.MustCol(ColYear)], row[s.MustCol(ColYearMonth)]
		if date/10000 != year || date/100 != ym {
			t.Fatalf("date hierarchy broken: date=%d year=%d ym=%d", date, year, ym)
		}
		if commit := row[s.MustCol(ColCommitDate)]; commit < date {
			t.Fatalf("commitdate %d before orderdate %d", commit, date)
		}
	}
}

func TestDateStrengthsMatchPaper(t *testing.T) {
	rel := Generate(Config{Rows: 60000, Customers: 900, Suppliers: 150, Parts: 600, Seed: 4})
	st := stats.New(rel, 4096, 5)
	st.Exact = true
	s := rel.Schema
	ym, yr, wk := s.MustCol(ColYearMonth), s.MustCol(ColYear), s.MustCol(ColWeekNum)
	if got := st.Strength([]int{ym}, []int{yr}); got < 0.999 {
		t.Errorf("strength(yearmonth→year) = %v, want 1 (paper: 1)", got)
	}
	if got := st.Strength([]int{yr}, []int{ym}); got < 0.06 || got > 0.12 {
		t.Errorf("strength(year→yearmonth) = %v, want ≈ 1/12 (paper: 0.14)", got)
	}
	if got := st.Strength([]int{wk}, []int{ym}); got > 0.3 {
		t.Errorf("strength(weeknum→yearmonth) = %v, want weak (paper: 0.12)", got)
	}
}

func TestQueriesWellFormed(t *testing.T) {
	rel := Generate(smallConfig())
	w := Queries()
	if len(w) != 13 {
		t.Fatalf("got %d queries, want 13", len(w))
	}
	names := map[string]bool{}
	for _, q := range w {
		if names[q.Name] {
			t.Errorf("duplicate query name %s", q.Name)
		}
		names[q.Name] = true
		if q.AggCol == "" {
			t.Errorf("%s: no aggregate column", q.Name)
		}
		for _, col := range q.AllColumns() {
			if rel.Schema.Col(col) < 0 {
				t.Errorf("%s references unknown column %s", q.Name, col)
			}
		}
	}
}

func TestQueriesSelectSomething(t *testing.T) {
	rel := Generate(Config{Rows: 60000, Customers: 900, Suppliers: 150, Parts: 600, Seed: 6})
	col := func(name string) int { return rel.Schema.MustCol(name) }
	empty := 0
	for _, q := range Queries() {
		n := 0
		for _, row := range rel.Rows {
			if q.MatchesRow(row, col) {
				n++
			}
		}
		if n == 0 {
			empty++
			t.Logf("%s matches no rows at this scale", q.Name)
		}
		if n == rel.NumRows() {
			t.Errorf("%s matches every row", q.Name)
		}
	}
	// The multi-IN flight-3 queries can go empty at very small scales, but
	// the workload as a whole must select real data.
	if empty > 1 {
		t.Errorf("%d queries match nothing", empty)
	}
}

func TestAugmentedWorkload(t *testing.T) {
	rel := Generate(smallConfig())
	w := AugmentedQueries()
	if len(w) != 52 {
		t.Fatalf("augmented workload has %d queries, want 52", len(w))
	}
	names := map[string]bool{}
	for _, q := range w {
		if names[q.Name] {
			t.Fatalf("duplicate query name %s", q.Name)
		}
		names[q.Name] = true
		for _, col := range q.AllColumns() {
			if rel.Schema.Col(col) < 0 {
				t.Errorf("%s references unknown column %s", q.Name, col)
			}
		}
		// Predicates must stay inside their domains.
		for i := range q.Predicates {
			p := &q.Predicates[i]
			lo, hi := p.Bounds()
			if p.Col == ColDiscount && (lo < 0 || hi > 10) {
				t.Errorf("%s: discount bounds [%d,%d] out of domain", q.Name, lo, hi)
			}
			if p.Col == ColYear && (lo < FirstYear || hi > LastYear) {
				t.Errorf("%s: year bounds [%d,%d] out of domain", q.Name, lo, hi)
			}
		}
	}
}

func TestVariantsDifferFromBase(t *testing.T) {
	w := AugmentedQueries()
	base := w[:13]
	for v := 1; v <= 3; v++ {
		variants := w[13*v : 13*(v+1)]
		differing := 0
		for i, q := range variants {
			if q.String() != base[i].String() {
				differing++
			}
		}
		if differing < 10 {
			t.Errorf("variant %d: only %d/13 queries differ from base", v, differing)
		}
	}
}

func TestDateOf(t *testing.T) {
	date, year, ym, wk := DateOf(0)
	if date != 19920101 || year != 1992 || ym != 199201 || wk != 1 {
		t.Errorf("DateOf(0) = %d %d %d %d", date, year, ym, wk)
	}
	date, year, ym, wk = DateOf(daysYear) // first day of 1993
	if date != 19930101 || year != 1993 || ym != 199301 || wk != 1 {
		t.Errorf("DateOf(360) = %d %d %d %d", date, year, ym, wk)
	}
	_, _, _, wkLast := DateOf(daysYear - 1)
	if wkLast > 52 {
		t.Errorf("weeknum overflow: %d", wkLast)
	}
}

// rowsChecksum is FNV-1a over every value of every row, in row order.
func rowsChecksum(cfg Config) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	for _, row := range Generate(cfg).Rows {
		for _, v := range row {
			for i := range buf {
				buf[i] = byte(uint64(v) >> (8 * i))
			}
			h.Write(buf[:])
		}
	}
	return h.Sum64()
}

// TestGenerateChecksum pins the generated rows for a seed: the sums were
// captured before Generate was rewritten to fill one backing array.
func TestGenerateChecksum(t *testing.T) {
	chrono := smallConfig()
	chrono.ChronoDates = true
	for _, c := range []struct {
		name string
		cfg  Config
		want uint64
	}{
		{"independent dates", smallConfig(), 0x3a6a3ffca7e81799},
		{"chrono dates", chrono, 0x118327358ec108f5},
		{"default config", Config{}, 0xc400d78cd070ada2},
	} {
		if got := rowsChecksum(c.cfg); got != c.want {
			t.Errorf("%s: rows checksum %#x, want %#x", c.name, got, c.want)
		}
	}
}
