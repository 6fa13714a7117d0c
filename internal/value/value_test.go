package value

import (
	"testing"
	"testing/quick"
)

func TestCompareKeys(t *testing.T) {
	cases := []struct {
		a, b []V
		want int
	}{
		{[]V{1, 2}, []V{1, 2}, 0},
		{[]V{1, 2}, []V{1, 3}, -1},
		{[]V{2}, []V{1, 9}, 1},
		{[]V{1}, []V{1, 0}, -1}, // shorter is smaller on tie
		{nil, nil, 0},
		{[]V{-5}, []V{5}, -1},
	}
	for _, c := range cases {
		if got := CompareKeys(c.a, c.b); got != c.want {
			t.Errorf("CompareKeys(%v,%v) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
}

func TestCompareKeysAntisymmetry(t *testing.T) {
	prop := func(a, b []int64) bool {
		return CompareKeys(a, b) == -CompareKeys(b, a)
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Error(err)
	}
}

func TestCompareKeysTransitivityOnTriples(t *testing.T) {
	prop := func(a, b, c []int64) bool {
		ab, bc, ac := CompareKeys(a, b), CompareKeys(b, c), CompareKeys(a, c)
		if ab <= 0 && bc <= 0 {
			return ac <= 0
		}
		if ab >= 0 && bc >= 0 {
			return ac >= 0
		}
		return true
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Error(err)
	}
}
