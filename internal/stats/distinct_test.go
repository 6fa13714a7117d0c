package stats

import (
	"math/rand"
	"testing"
)

func profileOf(sample []int) sampleCounts {
	freq := map[int]int{}
	for _, v := range sample {
		freq[v]++
	}
	c := sampleCounts{d: len(freq)}
	for _, n := range freq {
		switch n {
		case 1:
			c.f1++
		case 2:
			c.f2++
		}
	}
	return c
}

func TestGEEUniform(t *testing.T) {
	// 1000 rows sampled from 100k rows with 5000 distinct uniform values.
	rng := rand.New(rand.NewSource(1))
	sample := make([]int, 1000)
	for i := range sample {
		sample[i] = rng.Intn(5000)
	}
	c := profileOf(sample)
	est := GEE(c, 1000, 100000)
	if est < 2500 || est > 12000 {
		t.Errorf("GEE = %v, want within a factor ~2 of 5000", est)
	}
}

func TestEstimateDistinctBounds(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for _, d := range []int{10, 500, 5000} {
		sample := make([]int, 2000)
		for i := range sample {
			sample[i] = rng.Intn(d)
		}
		c := profileOf(sample)
		est := EstimateDistinct(c, 2000, 1_000_000)
		if est < float64(c.d) {
			t.Errorf("d=%d: estimate %v below observed %d", d, est, c.d)
		}
		if est > 1_000_000 {
			t.Errorf("d=%d: estimate %v above population", d, est)
		}
	}
}

func TestEstimateDistinctLowCardinalityIsExactish(t *testing.T) {
	// Every value seen many times: f1 = 0 → no upward correction.
	rng := rand.New(rand.NewSource(3))
	sample := make([]int, 2000)
	for i := range sample {
		sample[i] = rng.Intn(7)
	}
	c := profileOf(sample)
	est := EstimateDistinct(c, 2000, 1_000_000)
	if est != 7 {
		t.Errorf("estimate = %v, want exactly 7", est)
	}
}

func TestChaoNoF2(t *testing.T) {
	c := sampleCounts{d: 10, f1: 4, f2: 0}
	got := Chao(c)
	want := 10 + float64(4*3)/2
	if got != want {
		t.Errorf("Chao84 fallback = %v, want %v", got, want)
	}
}

func TestEstimateDistinctRawMatches(t *testing.T) {
	a := EstimateDistinct(sampleCounts{d: 50, f1: 20, f2: 10}, 100, 10000)
	b := EstimateDistinctRaw(50, 20, 10, 100, 10000)
	if a != b {
		t.Errorf("raw wrapper mismatch: %v vs %v", a, b)
	}
}
