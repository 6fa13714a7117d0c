package main

import (
	"testing"

	"coradd/internal/scenario"
)

// TestBootDesignProves pins the daemon's cold-start solve at its default
// flags (QuickScale at 20 000 rows, twice the fact heap) and the solver's
// default node cap: the instance must finish with a proof. Its final round
// prices 174 candidates, 86 of them exact twins of an earlier one; with
// the twins in the pool the search ran past 60M nodes without proving.
func TestBootDesignProves(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	t.Setenv("CORADD_SOLVER_MAXNODES", "") // the default cap
	scale := scenario.QuickScale()
	scale.SSBRows = 20_000
	env := scenario.SSB(scale, false)
	d, err := initialDesign(env, scale, int64(2*float64(env.Rel.HeapBytes())))
	if err != nil {
		t.Fatal(err)
	}
	if !d.SolverProven {
		t.Fatalf("boot design unproven after %d nodes", d.SolverNodes)
	}
	t.Logf("boot design: %d objects, objective %.6f, %d nodes", len(d.Chosen), d.TotalExpected(env.W), d.SolverNodes)
}
