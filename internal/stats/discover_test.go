package stats

import (
	"testing"
)

func TestDiscoverFindsHierarchy(t *testing.T) {
	st := New(hierRelation(40000, 21), 4096, 22)
	st.Exact = true
	found := st.DiscoverCorrelations(DiscoverOptions{MinStrength: 0.8})
	// a → b (perfect) must be discovered.
	hasAB := false
	for _, c := range found {
		if c.From == 0 && c.To == 1 {
			hasAB = true
			if c.Strength < 0.99 {
				t.Errorf("strength(a→b) = %v", c.Strength)
			}
		}
		if c.From == 0 && c.To == 2 {
			t.Error("discovered a → c (independent attributes)")
		}
	}
	if !hasAB {
		t.Error("a → b not discovered")
	}
}

func TestDiscoverPrunesUniqueDeterminant(t *testing.T) {
	st := New(hierRelation(20000, 22), 2048, 23)
	found := st.DiscoverCorrelations(DiscoverOptions{MinStrength: 0.5})
	for _, c := range found {
		if c.From == 3 { // u is unique: trivial determinant
			t.Errorf("unique column offered as determinant of %d", c.To)
		}
	}
}

func TestDiscoverSortedByStrength(t *testing.T) {
	st := New(hierRelation(20000, 23), 2048, 24)
	found := st.DiscoverCorrelations(DiscoverOptions{MinStrength: 0.2})
	for i := 1; i < len(found); i++ {
		if found[i].Strength > found[i-1].Strength+1e-12 {
			t.Fatal("not sorted by strength descending")
		}
	}
}
