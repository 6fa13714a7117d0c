package adapt

import (
	"errors"
	"math"
	"testing"

	"coradd/internal/fault"
	"coradd/internal/obs"
)

// chaosSchedule is the chaos ablation's seed-42 fault schedule at test
// scale: probabilistic build failures capped below the retry budget,
// probabilistic delays, and one crash after the second completed build,
// restored from the controller's State.
func chaosSchedule() (fault.Config, fault.RetryPolicy) {
	return fault.Config{
			Seed:             42,
			FailProb:         0.4,
			MaxFailsPerBuild: 2,
			DelayProb:        0.3,
			DelayFactor:      0.5,
			CrashAfterBuilds: []int{2},
		}, fault.RetryPolicy{
			Retries: 3, Base: 0.01, Factor: 2, Max: 0.08, JitterFrac: 0.1,
		}
}

// TestTraceDeterminism: the controller's structured event trace is part
// of the deterministic replay surface. Driving the chaos schedule —
// injected failures, delays, a crash and a restore — twice with
// fresh tracers must produce bit-identical event sequences: same
// length, same seqs, same clocks (to the bit), same kinds, same
// rendered fields. The trace only ever records the simulated timeline,
// never wall time, so any divergence here means nondeterminism leaked
// into the controller itself.
func TestTraceDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	common, initial, cfg := smallEnv(t, 6000)
	cfg.FB.MaxIters = -1
	cfg.ReplanTolerance = -1
	stream := drivingStream(39, 156)

	run := func() []obs.Event {
		tr := obs.NewTracer(4096)
		c := cfg
		c.Trace = tr
		fcfg, pol := chaosSchedule()
		c.Faults = fault.New(fcfg)
		c.Retry = pol
		ctl, err := New(common, initial, c)
		if err != nil {
			t.Fatal(err)
		}
		resumes := 0
		for i := 0; i < len(stream); {
			_, err := ctl.Process(stream[i])
			if err == nil {
				i++
				continue
			}
			if !errors.Is(err, fault.ErrCrash) {
				t.Fatal(err)
			}
			ctl, err = Restore(common, ctl.State(), c)
			if err != nil {
				t.Fatal(err)
			}
			resumes++
		}
		if resumes == 0 {
			t.Fatal("the schedule's crash never fired — the scenario went unexercised")
		}
		return tr.Events()
	}

	e1 := run()
	e2 := run()
	if len(e1) == 0 {
		t.Fatal("no trace events recorded")
	}
	if len(e1) != len(e2) {
		t.Fatalf("trace lengths diverged: %d vs %d", len(e1), len(e2))
	}
	kinds := map[string]bool{}
	for i := range e1 {
		a, b := e1[i], e2[i]
		if a.Seq != b.Seq || a.Kind != b.Kind ||
			math.Float64bits(a.Clock) != math.Float64bits(b.Clock) ||
			math.Float64bits(a.Dur) != math.Float64bits(b.Dur) {
			t.Fatalf("event %d diverged:\n%s\nvs\n%s", i, a.String(), b.String())
		}
		if len(a.Fields) != len(b.Fields) {
			t.Fatalf("event %d field counts diverged:\n%s\nvs\n%s", i, a.String(), b.String())
		}
		for f := range a.Fields {
			if a.Fields[f] != b.Fields[f] {
				t.Fatalf("event %d field %d diverged:\n%s\nvs\n%s", i, f, a.String(), b.String())
			}
		}
		kinds[a.Kind] = true
	}
	// The scenario must actually have traced the interesting paths:
	// drift detection, solve telemetry, and the controller event mirror.
	for _, want := range []string{"drift", "solve", EventRedesign.String(), EventBuild.String()} {
		if !kinds[want] {
			t.Errorf("no %q event in the trace (kinds seen: %v)", want, kinds)
		}
	}
}
