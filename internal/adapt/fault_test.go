package adapt

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"coradd/internal/deploy"
	"coradd/internal/fault"
)

// buildEvents extracts the EventBuild details of a report, in order — the
// step sequence a migration actually deployed.
func buildEvents(rep Report) []string {
	var out []string
	for _, e := range rep.Events {
		if e.Kind == EventBuild {
			out = append(out, e.Detail)
		}
	}
	return out
}

// TestRetryBackoffDeterminism: the same fault seed and schedule replay to
// a bit-identical timeline — clocks, cums, retry counts and the full
// event trace, including injected failures and delays.
func TestRetryBackoffDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	common, initial, cfg := smallEnv(t, 6000)
	cfg.FB.MaxIters = -1
	faultCfg := fault.Config{
		Seed: 7, FailProb: 0.6, MaxFailsPerBuild: 2,
		DelayProb: 0.4, DelayFactor: 0.5,
	}
	run := func() Report {
		c2 := cfg
		c2.Faults = fault.New(faultCfg)
		c, err := New(common, initial, c2)
		if err != nil {
			t.Fatal(err)
		}
		rep, err := c.Run(drivingStream(39, 156))
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	r1, r2 := run(), run()
	if r1.Retries == 0 {
		t.Error("fault schedule injected zero build failures — the test exercises nothing")
	}
	if math.Float64bits(r1.Cum) != math.Float64bits(r2.Cum) ||
		math.Float64bits(r1.Clock) != math.Float64bits(r2.Clock) {
		t.Fatalf("cum/clock diverged: %v/%v vs %v/%v", r1.Cum, r1.Clock, r2.Cum, r2.Clock)
	}
	if r1.Retries != r2.Retries || r1.SkippedBuilds != r2.SkippedBuilds ||
		r1.BuildsDone != r2.BuildsDone || r1.Replans != r2.Replans {
		t.Fatalf("counters diverged: %+v vs %+v", r1, r2)
	}
	if len(r1.Events) != len(r2.Events) {
		t.Fatalf("event counts diverged: %d vs %d", len(r1.Events), len(r2.Events))
	}
	for i := range r1.Events {
		a, b := r1.Events[i], r2.Events[i]
		if a.Kind != b.Kind || math.Float64bits(a.Clock) != math.Float64bits(b.Clock) || a.Detail != b.Detail {
			t.Fatalf("event %d diverged:\n%+v\n%+v", i, a, b)
		}
	}
}

// TestRetryExhaustionSkips: a build scripted to fail beyond the retry
// budget is skipped, the migration still completes (degraded), and the
// journal partitions every build across done/skipped.
func TestRetryExhaustionSkips(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	common, initial, cfg := smallEnv(t, 6000)
	cfg.FB.MaxIters = -1
	// Waits must be small relative to the simulated stream (a couple of
	// seconds end to end) or the retries outlive it.
	cfg.Retry = fault.RetryPolicy{Retries: 2, Base: 0.01, Factor: 2, Max: 0.05}

	// Dry run to learn the first build's name, then script it to fail
	// more times than the retry budget allows.
	dry, err := New(common, initial, cfg)
	if err != nil {
		t.Fatal(err)
	}
	stream := drivingStream(39, 208)
	dryRep, err := dry.Run(stream)
	if err != nil {
		t.Fatal(err)
	}
	dryBuilds := buildEvents(dryRep)
	if len(dryBuilds) < 2 {
		t.Fatalf("only %d builds — nothing left after a skip", len(dryBuilds))
	}
	first := strings.TrimPrefix(dryBuilds[0], "built ")
	first = strings.SplitN(first, " (", 2)[0]

	cfg.Faults = fault.New(fault.Config{Seed: 1, FailBuilds: map[string]int{first: 10}})
	c, err := New(common, initial, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Snapshot the journal when the degraded migration completes — a later
	// redesign starts a fresh journal.
	var j *deploy.Journal
	for _, q := range stream {
		if _, err := c.Process(q); err != nil {
			t.Fatal(err)
		}
		if j == nil {
			for _, e := range c.Report().Events {
				if e.Kind == EventMigrationDone {
					j = c.Journal()
					break
				}
			}
		}
	}
	rep := c.Report()
	if rep.SkippedBuilds != 1 {
		t.Fatalf("skipped %d builds, want exactly the scripted one", rep.SkippedBuilds)
	}
	if rep.Retries != cfg.Retry.Retries {
		t.Errorf("retried %d times, want the full budget %d before skipping", rep.Retries, cfg.Retry.Retries)
	}
	for _, e := range rep.Events {
		if e.Kind == EventBuild && strings.Contains(e.Detail, "built "+first+" ") {
			t.Errorf("skipped build %s was deployed anyway: %q", first, e.Detail)
		}
	}
	if j == nil {
		t.Fatal("the degraded migration never completed")
	}
	if err := j.Validate(); err != nil {
		t.Fatalf("invalid journal: %v", err)
	}
	if len(j.Skipped) != 1 {
		t.Errorf("journal records %d skipped builds, want 1", len(j.Skipped))
	}
	if c.Migrating() {
		// The degraded migration must terminate, not wedge on the dead build.
		t.Error("migration wedged after retry exhaustion")
	}
}

// TestProcessRecoversPanics: a poisoned input panics deep in the stack;
// Process turns it into an error instead of crashing the process.
func TestProcessRecoversPanics(t *testing.T) {
	common, initial, cfg := smallEnv(t, 3000)
	c, err := New(common, initial, cfg)
	if err != nil {
		t.Fatal(err)
	}
	_, err = c.Process(nil)
	if err == nil {
		t.Fatal("processing a nil query returned no error")
	}
	if !strings.Contains(err.Error(), "panic while processing") {
		t.Errorf("error does not identify the recovered panic: %v", err)
	}
	// The controller survives: a well-formed query still processes.
	if _, err := c.Process(common.W[0]); err != nil {
		t.Errorf("controller unusable after a recovered panic: %v", err)
	}
}

// TestSolveDegradedAtNodeCap: a redesign whose solve is cut by the
// injected node cap is adopted unproven, announced by EventSolveDegraded
// before its redesign event, and counted in Report.Degraded.
func TestSolveDegradedAtNodeCap(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	const nodeCap = 500
	common, initial, cfg := smallEnv(t, 6000)
	cfg.FB.MaxIters = -1
	cfg.Faults = fault.New(fault.Config{SolveNodeCap: nodeCap})
	c, err := New(common, initial, cfg)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := c.Run(drivingStream(39, 104))
	if err != nil {
		t.Fatal(err)
	}
	degraded := 0
	for i, e := range rep.Events {
		if e.Kind != EventSolveDegraded {
			continue
		}
		degraded++
		var nodes int
		if _, err := fmt.Sscanf(e.Detail, "redesign solve hit its deadline after %d nodes", &nodes); err != nil || nodes < nodeCap {
			t.Errorf("degraded event %q: want a node count of at least %d", e.Detail, nodeCap)
		}
		if i+1 >= len(rep.Events) || rep.Events[i+1].Kind != EventRedesign {
			t.Errorf("degraded event %d is not followed by its redesign", i)
		}
	}
	if degraded == 0 {
		t.Fatal("no redesign was cut by the node cap")
	}
	if rep.Degraded != degraded {
		t.Errorf("Report.Degraded = %d, %d degraded events", rep.Degraded, degraded)
	}
	t.Logf("%d of %d redesigns cut", degraded, rep.Redesigns)
}
