package apb

import (
	"slices"
	"testing"

	"coradd/internal/stats"
)

func TestGenerateDeterministic(t *testing.T) {
	a := Generate(Config{Rows: 20000, Seed: 9})
	b := Generate(Config{Rows: 20000, Seed: 9})
	for i := range a.Rows {
		if !slices.Equal(a.Rows[i], b.Rows[i]) {
			t.Fatal("same seed produced different data")
		}
	}
}

func TestProductHierarchyPerfect(t *testing.T) {
	rel := Generate(Config{Rows: 30000, Seed: 10})
	s := rel.Schema
	for _, row := range rel.Rows {
		prod := row[s.MustCol(ColProduct)]
		class := row[s.MustCol(ColClass)]
		group := row[s.MustCol(ColGroup)]
		family := row[s.MustCol(ColFamily)]
		if prod/(NumProducts/NumClasses) != class {
			t.Fatalf("product %d not in class %d", prod, class)
		}
		if class/(NumClasses/NumGroups) != group {
			t.Fatalf("class %d not in group %d", class, group)
		}
		if group/(NumGroups/NumFamilies) != family {
			t.Fatalf("group %d not in family %d", group, family)
		}
	}
}

func TestTimeHierarchy(t *testing.T) {
	rel := Generate(Config{Rows: 30000, Seed: 11})
	s := rel.Schema
	for _, row := range rel.Rows {
		month := row[s.MustCol(ColMonth)]
		quarter := row[s.MustCol(ColQuarter)]
		year := row[s.MustCol(ColYear)]
		if month/100 != year || quarter/10 != year {
			t.Fatalf("time hierarchy broken: month=%d quarter=%d year=%d", month, quarter, year)
		}
		mo := month % 100
		if (mo-1)/3+1 != quarter%10 {
			t.Fatalf("month %d not in quarter %d", month, quarter)
		}
	}
}

func TestHierarchyStrengths(t *testing.T) {
	rel := Generate(Config{Rows: 60000, Seed: 12})
	st := stats.New(rel, 4096, 13)
	st.Exact = true
	s := rel.Schema
	pairs := [][2]string{
		{ColProduct, ColClass}, {ColClass, ColGroup}, {ColGroup, ColFamily},
		{ColStore, ColRetailer}, {ColMonth, ColQuarter}, {ColQuarter, ColYear},
	}
	for _, p := range pairs {
		got := st.Strength([]int{s.MustCol(p[0])}, []int{s.MustCol(p[1])})
		if got < 0.999 {
			t.Errorf("strength(%s→%s) = %v, want 1 (perfect hierarchy)", p[0], p[1], got)
		}
	}
	// The reverse direction must be weak.
	if got := st.Strength([]int{s.MustCol(ColYear)}, []int{s.MustCol(ColMonth)}); got > 0.15 {
		t.Errorf("strength(year→month) = %v, want ≈ 1/12", got)
	}
}

func TestQueriesWellFormed(t *testing.T) {
	rel := Generate(Config{Rows: 20000, Seed: 14})
	w := Queries()
	if len(w) != 31 {
		t.Fatalf("got %d queries, want 31", len(w))
	}
	names := map[string]bool{}
	for _, q := range w {
		if names[q.Name] {
			t.Errorf("duplicate query name %s", q.Name)
		}
		names[q.Name] = true
		for _, col := range q.AllColumns() {
			if rel.Schema.Col(col) < 0 {
				t.Errorf("%s references unknown column %s", q.Name, col)
			}
		}
	}
}

func TestQueriesSelectSomething(t *testing.T) {
	rel := Generate(Config{Rows: 120000, Seed: 15})
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
	}
	// Point lookups on the product level can legitimately be empty at small
	// scale, but the bulk of the workload must be non-empty.
	if empty > 3 {
		t.Errorf("%d queries match nothing", empty)
	}
}
