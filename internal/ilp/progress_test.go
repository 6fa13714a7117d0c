package ilp

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
)

// sampleKey flattens a ProgressSample for bit-exact comparison (floats by
// their bit patterns, so −0 vs 0 or any ULP drift fails loudly).
type sampleKey struct {
	phase                     string
	nodes, pruned, incumbents int
	incumbent, bound          uint64
}

func keyOf(ps ProgressSample) sampleKey {
	return sampleKey{
		phase: ps.Phase, nodes: ps.Nodes, pruned: ps.Pruned, incumbents: ps.Incumbents,
		incumbent: math.Float64bits(ps.Incumbent), bound: math.Float64bits(ps.Bound),
	}
}

// TestProgressSinkDoesNotPerturbSolve is the nil-sink byte-identity
// contract: arming a progress sink must not move a single field of the
// solution — the observed search takes exactly the unobserved search's
// decisions.
func TestProgressSinkDoesNotPerturbSolve(t *testing.T) {
	rng := rand.New(rand.NewSource(4242))
	for trial := 0; trial < 20; trial++ {
		p := hardRandomProblem(rng, 30, 12)
		plain := Solve(p, SolveOptions{})
		var samples []ProgressSample
		observed := Solve(p, SolveOptions{
			Progress:      func(ps ProgressSample) { samples = append(samples, ps) },
			ProgressEvery: 64,
		})
		if !reflect.DeepEqual(plain, observed) {
			t.Fatalf("trial %d: observed solve diverged from plain\nplain    %+v\nobserved %+v",
				trial, plain, observed)
		}
		if len(samples) < 2 || samples[0].Phase != "root" || samples[len(samples)-1].Phase != "final" {
			t.Fatalf("trial %d: malformed sample trail (%d samples)", trial, len(samples))
		}
	}
}

// TestProgressSequenceDeterministic pins the introspection determinism
// contract: the emitted sample sequence, and the whole Solution with it,
// is bit-identical run to run — samples are keyed to node ordinals, never
// to wall clock.
func TestProgressSequenceDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(999))
	p := hardRandomProblem(rng, 40, 14)
	var runs [][]sampleKey
	var sols []*Solution
	for rep := 0; rep < 3; rep++ {
		var seq []sampleKey
		sols = append(sols, Solve(p, SolveOptions{
			Progress:      func(ps ProgressSample) { seq = append(seq, keyOf(ps)) },
			ProgressEvery: 32,
		}))
		runs = append(runs, seq)
	}
	for rep := 1; rep < len(runs); rep++ {
		if !reflect.DeepEqual(runs[0], runs[rep]) {
			t.Fatalf("run %d emitted a different sample sequence (%d vs %d samples)",
				rep, len(runs[0]), len(runs[rep]))
		}
		if !reflect.DeepEqual(sols[0], sols[rep]) {
			t.Fatalf("run %d returned a different solution:\n%+v\n%+v", rep, sols[0], sols[rep])
		}
	}
	if len(runs[0]) == 0 {
		t.Fatal("no samples emitted")
	}
}

// TestProgressGap pins Gap's clipping: positive incumbent-minus-bound,
// zero when either side is unknown (0) or the bound exceeds the
// incumbent.
func TestProgressGap(t *testing.T) {
	cases := []struct {
		inc, bound, want float64
	}{
		{10, 4, 6},
		{10, 10, 0},
		{10, 12, 0},
		{0, 4, 0},
		{10, 0, 0},
	}
	for _, tc := range cases {
		ps := ProgressSample{Incumbent: tc.inc, Bound: tc.bound}
		if got := ps.Gap(); got != tc.want {
			t.Errorf("Gap(inc=%v bound=%v) = %v, want %v", tc.inc, tc.bound, got, tc.want)
		}
	}
}

// TestSolveProfile covers the profile sink plumbing and the nil-receiver
// no-op contract.
func TestSolveProfile(t *testing.T) {
	var nilProf *SolveProfile
	if nilProf.Sink() != nil {
		t.Fatal("nil profile returned a live sink")
	}
	if nilProf.String() == "" {
		t.Fatal("nil profile String is empty")
	}

	prof := &SolveProfile{Label: "test"}
	rng := rand.New(rand.NewSource(77))
	p := hardRandomProblem(rng, 20, 10)
	Solve(p, SolveOptions{Progress: prof.Sink(), ProgressEvery: 16})
	if len(prof.Samples) < 2 {
		t.Fatalf("profile captured %d samples", len(prof.Samples))
	}
	if prof.Samples[0].Phase != "root" || prof.Samples[len(prof.Samples)-1].Phase != "final" {
		t.Fatalf("profile trail not root..final: %v", prof.Samples)
	}
	if prof.String() == "" {
		t.Fatal("profile String is empty")
	}
}
