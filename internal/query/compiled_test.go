package query

import (
	"math"
	"math/rand"
	"testing"

	"coradd/internal/value"
)

// threeColMapping maps a/b/c to positions 0/1/2; everything else is absent.
func threeColMapping(name string) int {
	switch name {
	case "a":
		return 0
	case "b":
		return 1
	case "c":
		return 2
	}
	return -1
}

func TestCompiledMatchesInterpreted(t *testing.T) {
	cases := []struct {
		name string
		q    *Query
	}{
		{"eq", &Query{Name: "eq", Predicates: []Predicate{NewEq("a", 5)}}},
		{"range", &Query{Name: "range", Predicates: []Predicate{NewRange("b", 3, 9)}}},
		{"in", &Query{Name: "in", Predicates: []Predicate{NewIn("c", 2, 7, 11)}}},
		{"in_single", &Query{Name: "in1", Predicates: []Predicate{NewIn("a", 4)}}},
		{"all_ops", &Query{Name: "all", Predicates: []Predicate{
			NewEq("a", 1), NewRange("b", 0, 6), NewIn("c", 1, 3, 5, 8),
		}}},
		{"empty", &Query{Name: "none"}},
		{"with_agg", &Query{Name: "agg", AggCol: "c", Predicates: []Predicate{NewEq("a", 2)}}},
	}
	rng := rand.New(rand.NewSource(7))
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cq, err := Compile(tc.q, threeColMapping)
			if err != nil {
				t.Fatal(err)
			}
			for trial := 0; trial < 2000; trial++ {
				row := value.Row{
					value.V(rng.Intn(12)), value.V(rng.Intn(12)), value.V(rng.Intn(12)),
				}
				want := tc.q.MatchesRow(row, threeColMapping)
				got := true
				for i := range cq.Preds {
					got = got && cq.Preds[i].Has(row[cq.Preds[i].Col])
				}
				if got != want {
					t.Fatalf("row %v: compiled=%v interpreted=%v", row, got, want)
				}
			}
		})
	}
}

func TestCompiledPredMatchesPredicate(t *testing.T) {
	preds := []Predicate{
		NewEq("a", 5),
		NewRange("a", -4, 4),
		NewIn("a", -3, 0, 9, 100),
		NewIn("a"), // empty IN set matches nothing
	}
	for _, p := range preds {
		q := &Query{Name: "p", Predicates: []Predicate{p}}
		cq := MustCompile(q, threeColMapping)
		for v := value.V(-6); v <= 101; v++ {
			if got, want := cq.Preds[0].Has(v), p.Matches(v); got != want {
				t.Fatalf("%s v=%d: compiled=%v interpreted=%v", p.String(), v, got, want)
			}
		}
	}
}

func TestCompileMissingColumn(t *testing.T) {
	q := &Query{Name: "bad", Predicates: []Predicate{NewEq("nope", 1)}}
	if _, err := Compile(q, threeColMapping); err == nil {
		t.Fatal("Compile accepted a predicate on a missing column")
	}
	q2 := &Query{Name: "badagg", AggCol: "nope"}
	if _, err := Compile(q2, threeColMapping); err == nil {
		t.Fatal("Compile accepted a missing aggregate column")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("MustCompile did not panic on missing column")
		}
	}()
	MustCompile(q, threeColMapping)
}

func TestCompileBindsAggAndPositions(t *testing.T) {
	q := &Query{Name: "q", AggCol: "b", Predicates: []Predicate{NewEq("c", 1), NewEq("a", 2)}}
	cq := MustCompile(q, threeColMapping)
	if cq.Agg != 1 {
		t.Errorf("agg position = %d, want 1", cq.Agg)
	}
	if cq.Preds[0].Col != 2 || cq.Preds[1].Col != 0 {
		t.Errorf("predicate positions = %d,%d, want 2,0", cq.Preds[0].Col, cq.Preds[1].Col)
	}
	q2 := &Query{Name: "noagg"}
	if cq2 := MustCompile(q2, threeColMapping); cq2.Agg != -1 {
		t.Errorf("agg position = %d, want -1", cq2.Agg)
	}
}

// probes returns the values worth testing p's compiled form at: the
// extremes and 0, every bound and IN member with its neighbours, the
// bitmap's word boundaries up to the padding past the span, and a few
// random values.
func probes(p *Predicate, c *CompiledPred, rng *rand.Rand) []value.V {
	vs := []value.V{math.MinInt64, math.MinInt64 + 1, -1, 0, 1, math.MaxInt64 - 1, math.MaxInt64}
	near := func(v value.V) { vs = append(vs, v-1, v, v+1) }
	near(p.Lo)
	near(p.Hi)
	near(c.Lo)
	near(c.Lo + value.V(c.Span))
	for i, v := range p.Set {
		if i < 64 || rng.Intn(8) == 0 {
			near(v)
		}
	}
	for w := range uint64(len(c.Bits)) + 1 {
		near(c.Lo + value.V(w*64))
	}
	for range 8 {
		vs = append(vs, c.Lo+value.V(rng.Uint64()%(c.Span+2)), value.V(rng.Uint64()))
	}
	return vs
}

// checkCompiled compares p's compiled form with Predicate.Matches at every
// probe, and holds the form to its shape: a bitmap only below the cap, a
// power-of-two word count addressed by WMask, and the sorted-set probe
// exactly for an IN whose span reaches the cap.
func checkCompiled(t *testing.T, p Predicate, rng *rand.Rand) {
	t.Helper()
	c := CompilePred(&p, 0)
	wide := p.Op == In && len(p.Set) > 0 && uint64(p.Set[len(p.Set)-1])-uint64(p.Set[0]) >= inBitsCap
	if (c.Set != nil) != wide {
		t.Fatalf("%s: sorted-set probe %v, want %v", p.String(), c.Set != nil, wide)
	}
	if n := uint64(len(c.Bits)); n == 0 || n&(n-1) != 0 || c.WMask != n-1 || n*64 > inBitsCap {
		t.Fatalf("%s: %d bitmap words with WMask %d", p.String(), n, c.WMask)
	}
	for _, v := range probes(&p, &c, rng) {
		if got, want := c.Has(v), p.Matches(v); got != want {
			t.Fatalf("%s v=%d: compiled %v, Predicate.Matches %v (lo %d span %d, %d words)",
				p.String(), v, got, want, c.Lo, c.Span, len(c.Bits))
		}
	}
}

// inSpanning returns an IN set of n members from lo to lo+span inclusive.
func inSpanning(rng *rand.Rand, lo value.V, span uint64, n int) Predicate {
	set := []value.V{lo, lo + value.V(span)}
	for range n - 2 {
		set = append(set, lo+value.V(rng.Uint64()%(span+1)))
	}
	return NewIn("a", set...)
}

// TestCompiledPredProperty compares the compiled form with the reference
// Predicate.Matches over the edge cases of the encoding and over seeded
// random predicates of every operator.
func TestCompiledPredProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(39))
	const lo, hi = math.MinInt64, math.MaxInt64
	preds := []Predicate{
		NewEq("a", 0), NewEq("a", lo), NewEq("a", hi), NewEq("a", -7),
		{Col: "a", Op: Eq, Lo: 5, Hi: 9}, // an Eq tests Lo only
		{Col: "a", Op: Eq, Lo: 9, Hi: 5},
		NewRange("a", lo, hi), NewRange("a", lo, lo), NewRange("a", hi, hi),
		NewRange("a", -5, 5), NewRange("a", 0, 0), NewRange("a", lo, -1), NewRange("a", 0, hi),
		NewRange("a", 5, 4), NewRange("a", hi, lo), NewRange("a", 1, -1), // empty
		NewIn("a", 0), NewIn("a", lo), NewIn("a", hi), NewIn("a", -3),
		NewIn("a", lo, hi), NewIn("a", lo, 0), NewIn("a", -1, hi), NewIn("a", lo, lo+1),
		NewIn("a", hi-1, hi), NewIn("a", -2, -1, 1, 2),
		NewIn("a"), // an empty set matches nothing
		// Spans around word boundaries.
		NewIn("a", 0, 63), NewIn("a", 0, 64), NewIn("a", -1, 63), NewIn("a", 63, 64),
		NewIn("a", 0, 127), NewIn("a", 0, 128), NewIn("a", -64, 64), NewIn("a", 10, 200, 1000),
	}
	for _, span := range []uint64{inBitsCap - 1, inBitsCap, inBitsCap + 1} {
		for _, base := range []value.V{0, -inBitsCap / 2, 37, lo, hi - value.V(span)} {
			preds = append(preds, inSpanning(rng, base, span, 2), inSpanning(rng, base, span, 300))
		}
	}
	for range 400 {
		base := value.V(rng.Int63n(1<<20) - 1<<19)
		switch rng.Intn(3) {
		case 0:
			preds = append(preds, Predicate{Col: "a", Op: Eq, Lo: base, Hi: base + value.V(rng.Intn(3))})
		case 1:
			preds = append(preds, NewRange("a", base, base+value.V(rng.Intn(400)-20)))
		case 2:
			span := uint64(rng.Intn(2000))
			if rng.Intn(8) == 0 {
				span = uint64(rng.Int63n(1 << 40))
			}
			preds = append(preds, inSpanning(rng, base, span, 2+rng.Intn(40)))
		}
	}
	for _, p := range preds {
		checkCompiled(t, p, rng)
	}
}

// FuzzCompiledPredicate compares the compiled form with Predicate.Matches
// on fuzzed predicates. An IN's members are a plus 3-byte offsets shifted
// left by b mod 24 bits, so spans run from 0 across the bitmap cap to
// 2⁴⁷; a third offset byte of 255 or 254 stands for MaxInt64 or MinInt64,
// which stretches the span to 2⁶⁴−1.
func FuzzCompiledPredicate(f *testing.F) {
	f.Add(uint8(0), int64(5), int64(9), []byte{}, int64(5))
	f.Add(uint8(1), int64(-3), int64(3), []byte{}, int64(-4))
	f.Add(uint8(1), int64(4), int64(-4), []byte{}, int64(0))
	f.Add(uint8(2), int64(0), int64(0), []byte{1, 0, 0, 64, 0, 0, 0, 0, 1}, int64(64))
	f.Add(uint8(2), int64(-70000), int64(0), []byte{255, 255, 0, 0, 0, 255}, int64(0))
	f.Add(uint8(2), int64(math.MinInt64), int64(3), []byte{0, 32, 0, 1, 0, 0}, int64(0))
	f.Add(uint8(2), int64(7), int64(0), []byte{0, 0, 254, 9, 0, 0, 0, 0, 255}, int64(7))
	f.Fuzz(func(t *testing.T, op uint8, a, b int64, set []byte, probe int64) {
		var p Predicate
		switch op % 3 {
		case 0:
			p = Predicate{Col: "a", Op: Eq, Lo: a, Hi: b}
		case 1:
			p = NewRange("a", a, b)
		case 2:
			vs := []value.V{a}
			for i := 0; i+3 <= len(set) && len(vs) < 512; i += 3 {
				switch set[i+2] {
				case 255:
					vs = append(vs, math.MaxInt64)
				case 254:
					vs = append(vs, math.MinInt64)
				default:
					off := uint64(set[i]) | uint64(set[i+1])<<8 | uint64(set[i+2])<<16
					vs = append(vs, a+value.V(off<<(uint64(b)%24)))
				}
			}
			p = NewIn("a", vs...)
		}
		rng := rand.New(rand.NewSource(probe))
		checkCompiled(t, p, rng)
		c := CompilePred(&p, 0)
		if got, want := c.Has(probe), p.Matches(probe); got != want {
			t.Fatalf("%s v=%d: compiled %v, Predicate.Matches %v", p.String(), probe, got, want)
		}
	})
}
