// Package exp regenerates every table and figure of the paper's evaluation
// (plus the in-text ablations) on the simulated substrate. Each experiment
// returns both typed series (consumed by tests and benchmarks) and a
// printable table whose rows mirror what the paper plots. EXPERIMENTS.md
// records the paper-vs-measured comparison for each.
package exp

import (
	"fmt"
	"io"
	"strings"
	"text/tabwriter"

	"coradd/internal/designer"
	"coradd/internal/scenario"
)

// The three aliases below are kept for bench/ only: the benchmark module
// compiles against exp.Env, exp.Scale and exp.QuickScale. Everything in
// this repository uses internal/scenario directly.
type Env = scenario.Env
type Scale = scenario.Scale

var QuickScale = scenario.QuickScale

// Table is a printable experiment result.
type Table struct {
	ID     string // e.g. "Figure 9"
	Title  string
	Header []string
	Rows   [][]string
	Notes  []string
}

// Print renders the table to w.
func (t *Table) Print(w io.Writer) {
	fmt.Fprintf(w, "== %s: %s ==\n", t.ID, t.Title)
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, strings.Join(t.Header, "\t"))
	for _, r := range t.Rows {
		fmt.Fprintln(tw, strings.Join(r, "\t"))
	}
	tw.Flush()
	for _, n := range t.Notes {
		fmt.Fprintf(w, "note: %s\n", n)
	}
	fmt.Fprintln(w)
}

// newCoradd builds a CORADD designer over the environment; fbIters == -1
// disables feedback (plain ILP).
func newCoradd(env *scenario.Env, fbIters int) *designer.CORADD {
	fb := env.Scale.FB
	fb.MaxIters = fbIters
	return designer.NewCORADD(env.Common, env.Scale.Cand, fb)
}

func f3(v float64) string { return fmt.Sprintf("%.3f", v) }
func f2(v float64) string { return fmt.Sprintf("%.2f", v) }
func mb(b int64) string   { return fmt.Sprintf("%.1f", float64(b)/(1<<20)) }
