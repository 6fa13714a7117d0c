package obs

import "testing"

// TestTracerRing pins the bounded-ring semantics: Seq keeps counting
// past capacity, Events returns exactly the last cap entries oldest
// first, and Recent trims from the old end.
func TestTracerRing(t *testing.T) {
	tr := NewTracer(4)
	for i := 1; i <= 10; i++ {
		tr.Event(float64(i), "tick", F("i", i))
	}
	if tr.Seq() != 10 {
		t.Fatalf("seq = %d, want 10", tr.Seq())
	}
	evs := tr.Events()
	if len(evs) != 4 {
		t.Fatalf("retained %d events, want 4", len(evs))
	}
	for i, e := range evs {
		wantSeq := uint64(7 + i)
		if e.Seq != wantSeq || e.Clock != float64(7+i) {
			t.Errorf("event %d: seq=%d clock=%g, want seq=%d clock=%d", i, e.Seq, e.Clock, wantSeq, 7+i)
		}
	}
	recent := tr.Recent(2)
	if len(recent) != 2 || recent[0].Seq != 9 || recent[1].Seq != 10 {
		t.Errorf("Recent(2) = %v", recent)
	}
}

// TestTracerString pins the key=value rendering used by /statusz.
func TestTracerString(t *testing.T) {
	tr := NewTracer(4)
	tr.Span(12.5, 0.25, "solve", F("nodes", 1234), F("proven", true))
	got := tr.Events()[0].String()
	want := "seq=1 clock=12.5 kind=solve dur=0.25 nodes=1234 proven=true"
	if got != want {
		t.Errorf("String() = %q, want %q", got, want)
	}
}

// TestFieldFormatting pins F's canonical value formatting.
func TestFieldFormatting(t *testing.T) {
	cases := []struct {
		v    any
		want string
	}{
		{"s", "s"},
		{42, "42"},
		{int64(-7), "-7"},
		{uint64(9), "9"},
		{1.25, "1.25"},
		{0.1, "0.1"},
		{true, "true"},
	}
	for _, c := range cases {
		if got := F("k", c.v).Value; got != c.want {
			t.Errorf("F(%v) = %q, want %q", c.v, got, c.want)
		}
	}
}
