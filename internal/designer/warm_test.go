package designer

import (
	"math"
	"testing"

	"coradd/internal/costmodel"
	"coradd/internal/feedback"
	"coradd/internal/ilp"
	"coradd/internal/query"
	"coradd/internal/ssb"
)

// TestDesignFromMatchesColdAndPrunes: warm-starting a redesign from an
// incumbent reaches the same objective as a cold Design on the evolved
// workload, and the solver explores no more nodes — the adaptive loop's
// incremental-redesign contract, at the designer level.
func TestDesignFromMatchesColdAndPrunes(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	rel, _, c := smallSSB(t, 40000)
	budget := rel.HeapBytes() * 2

	// Incumbent: designed for the base 13-query workload.
	inc := NewCORADD(c, smallCandCfg(), feedback.Config{MaxIters: 1})
	d1, err := inc.Design(budget)
	if err != nil {
		t.Fatal(err)
	}

	// The workload evolves; redesign warm vs cold on the same inputs.
	c2 := c
	c2.W = ssb.AugmentedQueries()[:26]
	cold := NewCORADD(c2, smallCandCfg(), feedback.Config{MaxIters: 1})
	dCold, err := cold.Design(budget)
	if err != nil {
		t.Fatal(err)
	}
	warm := NewCORADD(c2, smallCandCfg(), feedback.Config{MaxIters: 1})
	dWarm, err := warm.DesignFrom(budget, d1)
	if err != nil {
		t.Fatal(err)
	}

	if math.Abs(dWarm.TotalExpected(c2.W)-dCold.TotalExpected(c2.W)) > 1e-9 {
		t.Errorf("warm redesign objective %.6f != cold %.6f",
			dWarm.TotalExpected(c2.W), dCold.TotalExpected(c2.W))
	}
	if dWarm.SolverNodes > dCold.SolverNodes {
		t.Errorf("warm redesign explored %d nodes > cold %d", dWarm.SolverNodes, dCold.SolverNodes)
	}
	if dWarm.SolverProven != dCold.SolverProven {
		t.Errorf("proven mismatch: warm %v cold %v", dWarm.SolverProven, dCold.SolverProven)
	}
	if warm.LastSolve == nil || cold.LastSolve == nil {
		t.Fatal("LastSolve telemetry missing")
	}

	// DesignFrom(nil) is a plain Design.
	plain, err := cold.DesignFrom(budget, nil)
	if err != nil {
		t.Fatal(err)
	}
	if plain.TotalExpected(c2.W) != dCold.TotalExpected(c2.W) || plain.SolverNodes != dCold.SolverNodes {
		t.Error("DesignFrom(nil) diverged from Design")
	}
}

// TestRerouteMatchesFreshRouting: rerouting a design for another workload
// reproduces exactly what routing it fresh for that workload yields, and
// leaves the original untouched.
func TestRerouteMatchesFreshRouting(t *testing.T) {
	rel, _, c := smallSSB(t, 20000)
	des := NewCORADD(c, smallCandCfg(), feedback.Config{MaxIters: -1})
	d, err := des.Design(rel.HeapBytes() * 2)
	if err != nil {
		t.Fatal(err)
	}
	w2 := query.Workload{c.W[3], c.W[0], c.W[7]}
	rd := Reroute(d, des.Model, w2)
	if len(rd.Routing) != len(w2) || len(rd.Expected) != len(w2) {
		t.Fatalf("rerouted lengths %d/%d, want %d", len(rd.Routing), len(rd.Expected), len(w2))
	}
	for qi, q := range w2 {
		best, kind := des.Model.Estimate(d.Base, q)
		route := -1
		for i, md := range d.Chosen {
			if tt, k := des.Model.Estimate(md, q); tt < best {
				best, kind, route = tt, k, i
			}
		}
		if rd.Routing[qi] != route || rd.Expected[qi] != best || rd.Paths[qi] != kind {
			t.Errorf("query %s: reroute (%d,%v,%v) != fresh (%d,%v,%v)",
				q.Name, rd.Routing[qi], rd.Expected[qi], rd.Paths[qi], route, best, kind)
		}
	}
	if len(d.Routing) != len(c.W) {
		t.Error("Reroute mutated the original design")
	}
}

// TestRedesignOnWarmedModelMatchesFresh: a redesign priced by a model that
// an earlier redesign already ran on another stream — the same query names
// over other literals, with the candidates generated for them — chooses,
// routes and searches exactly like a redesign on a fresh model. The model
// keeps no estimates between calls, so the adaptive controller shares one
// model across all its redesigns.
func TestRedesignOnWarmedModelMatchesFresh(t *testing.T) {
	rel, _, c := smallSSB(t, 20000)
	c.Solve = ilp.SolveOptions{MaxNodes: 200_000}
	budget := rel.HeapBytes() * 2
	fb := feedback.Config{MaxIters: 1}
	fresh := NewCORADD(c, smallCandCfg(), fb)
	want, err := fresh.Design(budget)
	if err != nil {
		t.Fatal(err)
	}

	// The same names over other literals: every predicate bound to values
	// outside its column's domain, so each covered candidate prices the
	// stream far cheaper than the real one.
	other := make(query.Workload, len(c.W))
	for i, q := range c.W {
		moved := *q
		moved.Predicates = nil
		for _, p := range q.Predicates {
			switch p.Op {
			case query.Eq:
				p = query.NewEq(p.Col, -1)
			case query.Range:
				p = query.NewRange(p.Col, -10, -1)
			case query.In:
				p = query.NewIn(p.Col, -2, -1)
			}
			moved.Predicates = append(moved.Predicates, p)
		}
		other[i] = &moved
	}
	model := costmodel.NewAware(c.St, c.Disk)
	cOther := c
	cOther.W = other
	warmup := NewCORADDWith(cOther, model, smallCandCfg())
	warmup.Feedback = fb
	if _, err := warmup.Design(budget); err != nil {
		t.Fatal(err)
	}

	shared := NewCORADDWith(c, model, smallCandCfg())
	shared.Feedback = fb
	got, err := shared.Design(budget)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Chosen) != len(want.Chosen) || got.Size != want.Size || got.SolverNodes != want.SolverNodes {
		t.Fatalf("warmed model chose %d objects (%d bytes, %d nodes), fresh model %d (%d bytes, %d nodes)",
			len(got.Chosen), got.Size, got.SolverNodes, len(want.Chosen), want.Size, want.SolverNodes)
	}
	for i := range want.Chosen {
		if got.Chosen[i].Key() != want.Chosen[i].Key() {
			t.Errorf("object %d: warmed model chose %s, fresh model %s", i, got.Chosen[i], want.Chosen[i])
		}
	}
	for qi, q := range c.W {
		if got.Routing[qi] != want.Routing[qi] || got.Paths[qi] != want.Paths[qi] ||
			math.Float64bits(got.Expected[qi]) != math.Float64bits(want.Expected[qi]) {
			t.Errorf("%s: warmed model routes (%d,%v,%v), fresh model (%d,%v,%v)", q.Name,
				got.Routing[qi], got.Paths[qi], got.Expected[qi], want.Routing[qi], want.Paths[qi], want.Expected[qi])
		}
	}
}
