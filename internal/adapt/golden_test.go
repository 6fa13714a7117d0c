package adapt

import (
	"flag"
	"fmt"
	"math"
	"os"
	"strings"
	"testing"

	"coradd/internal/fault"
	"coradd/internal/query"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/golden_migration.txt from the current implementation")

// floatBits renders values as their IEEE-754 bit patterns, so the golden
// table pins every modeled number exactly.
func floatBits(xs []float64) string {
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = fmt.Sprintf("%x", math.Float64bits(x))
	}
	return "[" + strings.Join(parts, " ") + "]"
}

// migrationRecorder renders a controller's trace and in-flight migration
// state: every event (kind, clock bits, detail) and, after each Process
// call that fired one, the journal's Done/Next/Skipped plus the remaining
// schedule's per-step build and rate bits.
type migrationRecorder struct {
	b    strings.Builder
	seen int
}

func (r *migrationRecorder) record(label string, c *Controller) {
	events := c.Report().Events
	if len(events) == r.seen {
		return
	}
	for _, e := range events[r.seen:] {
		fmt.Fprintf(&r.b, "%s event %s clock=%x %s\n", label, e.Kind, math.Float64bits(e.Clock), e.Detail)
	}
	r.seen = len(events)
	if j := c.Journal(); j != nil {
		fmt.Fprintf(&r.b, "%s journal done=%v next=%v skipped=%v\n", label, j.Done, j.Next, j.Skipped)
	}
	if m := c.s.mig; m != nil {
		fmt.Fprintf(&r.b, "%s remaining builds=%s rates=%s wtotal=%x next-done=%x\n", label,
			floatBits(m.builds), floatBits(m.rates), math.Float64bits(m.wTotal), math.Float64bits(c.build.done))
	}
}

// run processes stream, recording after every call; after, when non-nil,
// is called after each recorded step.
func (r *migrationRecorder) run(t *testing.T, label string, c *Controller, stream []*query.Query, after func(i int)) {
	t.Helper()
	for i, q := range stream {
		if _, err := c.Process(q); err != nil {
			t.Fatalf("%s: event %d: %v", label, i, err)
		}
		r.record(label, c)
		if after != nil {
			after(i)
		}
	}
}

// goldenMigrationRows renders two deterministic migrations: (a) the
// always-replanning stream of TestReplanFiresUnderTightTolerance, with a
// State → Restore round trip taken after its first mid-migration build and
// the restored controller run over the rest of the stream; (b) the
// scripted-failure stream of TestRetryExhaustionSkips, whose first build
// is skipped after exhausting its retries.
func goldenMigrationRows(t *testing.T) string {
	common, initial, cfg := smallEnv(t, 6000)
	cfg.FB.MaxIters = -1

	var out strings.Builder

	// (a) Replan after every build, plus a mid-migration restart.
	cfgA := cfg
	cfgA.ReplanTolerance = 1e-12
	c, err := New(common, initial, cfgA)
	if err != nil {
		t.Fatal(err)
	}
	stream := drivingStream(39, 208)
	var ra, rr migrationRecorder
	restored := false
	ra.run(t, "a", c, stream, func(i int) {
		j := c.Journal()
		if restored || !c.Migrating() || len(j.Done) == 0 || len(j.Next) < 2 {
			return
		}
		restored = true
		rc, err := Restore(common, c.State(), cfgA)
		if err != nil {
			t.Fatalf("restore after event %d: %v", i, err)
		}
		fmt.Fprintf(&rr.b, "restored after event %d\n", i)
		rr.record("a/restored", rc)
		rr.run(t, "a/restored", rc, stream[i+1:], nil)
	})
	if !restored {
		t.Fatal("run (a) never reached a mid-migration point with two builds left")
	}
	out.WriteString(ra.b.String())
	out.WriteString(rr.b.String())

	// (b) The first build fails past its retry budget and is skipped.
	cfgB := cfg
	cfgB.Retry = fault.RetryPolicy{Retries: 2, Base: 0.01, Factor: 2, Max: 0.05}
	dry, err := New(common, initial, cfgB)
	if err != nil {
		t.Fatal(err)
	}
	dryRep, err := dry.Run(stream)
	if err != nil {
		t.Fatal(err)
	}
	dryBuilds := buildEvents(dryRep)
	if len(dryBuilds) < 2 {
		t.Fatalf("run (b): only %d builds in the dry run", len(dryBuilds))
	}
	first := strings.SplitN(strings.TrimPrefix(dryBuilds[0], "built "), " (", 2)[0]
	cfgB.Faults = fault.New(fault.Config{Seed: 1, FailBuilds: map[string]int{first: 10}})
	cb, err := New(common, initial, cfgB)
	if err != nil {
		t.Fatal(err)
	}
	var rb migrationRecorder
	rb.run(t, "b", cb, stream, nil)
	out.WriteString(rb.b.String())
	return out.String()
}

// TestMigrationGolden pins the controller's migration path bit for bit:
// the build order, every replan's solved remainder, skip handling and the
// resumed remainder after a restart, down to the modeled build seconds and
// rates the replan decision compares against.
func TestMigrationGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	const path = "testdata/golden_migration.txt"
	got := goldenMigrationRows(t)
	if *updateGolden {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	gotLines, wantLines := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(gotLines) && i < len(wantLines); i++ {
		if gotLines[i] != wantLines[i] {
			t.Fatalf("row %d moved:\n got  %s\n want %s", i, gotLines[i], wantLines[i])
		}
	}
	if len(gotLines) != len(wantLines) {
		t.Fatalf("golden table has %d rows, got %d", len(wantLines), len(gotLines))
	}
}
