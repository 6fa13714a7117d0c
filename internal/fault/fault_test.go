package fault

import (
	"math"
	"testing"
)

// TestNilInjectorIsDisabled pins the nil-receiver contract every call
// site relies on: a nil injector injects nothing and draws nothing, so
// fault-free runs are byte-identical to builds without the package.
func TestNilInjectorIsDisabled(t *testing.T) {
	var in *Injector
	if o := in.BuildAttempt("x"); o != (Outcome{}) {
		t.Errorf("nil injector drew %+v", o)
	}
	if in.SolveInterrupt() != nil {
		t.Error("nil injector injected a solve interrupt")
	}
	if in.Jitter() != 0 {
		t.Error("nil injector drew jitter")
	}
}

// TestDrawDeterminism pins the replay contract: two injectors with the
// same seed and the same call sequence produce identical outcomes.
func TestDrawDeterminism(t *testing.T) {
	cfg := Config{Seed: 9, FailProb: 0.4, DelayProb: 0.5, DelayFactor: 0.7, MaxFailsPerBuild: 2}
	a, b := New(cfg), New(cfg)
	names := []string{"mv1", "mv2", "mv1", "mv3", "mv1", "mv2"}
	for i, name := range names {
		oa, ob := a.BuildAttempt(name), b.BuildAttempt(name)
		if oa != ob {
			t.Fatalf("draw %d diverged: %+v vs %+v", i, oa, ob)
		}
		if ja, jb := a.Jitter(), b.Jitter(); ja != jb {
			t.Fatalf("jitter %d diverged: %v vs %v", i, ja, jb)
		}
	}
}

// TestScriptedFailures pins FailBuilds: exactly the scripted number of
// failures, no randomness consumed, then success.
func TestScriptedFailures(t *testing.T) {
	in := New(Config{Seed: 1, FailBuilds: map[string]int{"mv": 2}})
	for i := 0; i < 2; i++ {
		if o := in.BuildAttempt("mv"); !o.Fail {
			t.Fatalf("scripted attempt %d did not fail", i+1)
		}
	}
	for i := 0; i < 3; i++ {
		if o := in.BuildAttempt("mv"); o.Fail {
			t.Fatalf("attempt %d failed beyond the scripted count", i+3)
		}
	}
}

// TestMaxFailsPerBuildBoundsFaultMass: with FailProb 1 every attempt
// would fail forever; the cap guarantees the k+1-th attempt succeeds.
func TestMaxFailsPerBuildBoundsFaultMass(t *testing.T) {
	in := New(Config{Seed: 3, FailProb: 1, MaxFailsPerBuild: 3})
	fails := 0
	for i := 0; i < 10; i++ {
		if in.BuildAttempt("mv").Fail {
			fails++
		}
	}
	if fails != 3 {
		t.Errorf("injected %d failures, want exactly the cap (3)", fails)
	}
}

// TestCrashSchedule pins CrashAfterBuilds ordinals, each firing once and
// counted over successful attempts only.
func TestCrashSchedule(t *testing.T) {
	in := New(Config{CrashAfterBuilds: []int{2, 4}, FailBuilds: map[string]int{"bad": 1}})
	var got []int
	for i := 1; i <= 6; i++ {
		if i == 3 && !in.BuildAttempt("bad").Fail {
			t.Fatal("scripted failure did not fail")
		}
		if in.BuildAttempt("mv").Crash {
			got = append(got, i)
		}
	}
	if len(got) != 2 || got[0] != 2 || got[1] != 4 {
		t.Errorf("crashes fired at %v, want [2 4]", got)
	}
}

// TestSolveInterruptCutsAtCap: the predicate is monotone in nodes and
// fires exactly at the cap.
func TestSolveInterruptCutsAtCap(t *testing.T) {
	in := New(Config{SolveNodeCap: 100})
	f := in.SolveInterrupt()
	if f == nil {
		t.Fatal("no interrupt for a positive cap")
	}
	if f(99) || !f(100) || !f(101) {
		t.Error("interrupt does not fire exactly from the cap")
	}
	if New(Config{}).SolveInterrupt() != nil {
		t.Error("interrupt injected without a cap")
	}
}

// TestRetryPolicyShape pins the backoff curve: exponential growth, the
// per-wait cap, bounded jitter, and bit-identical waits per seed.
func TestRetryPolicyShape(t *testing.T) {
	p := RetryPolicy{}.Fill()
	if p.Retries != 3 || p.Base != 1 || p.Factor != 2 || p.Max != 60 || p.JitterFrac != 0.1 {
		t.Fatalf("unexpected defaults: %+v", p)
	}
	// Jitter-free shape (nil injector): 1, 2, 4, ..., capped at 60.
	want := []float64{1, 2, 4, 8, 16, 32, 60, 60}
	for k, w := range want {
		if got := p.Wait(k+1, nil); math.Abs(got-w) > 1e-12 {
			t.Errorf("Wait(%d) = %v, want %v", k+1, got, w)
		}
	}
	// Jittered waits stay within ±JitterFrac and replay per seed.
	a, b := New(Config{Seed: 5}), New(Config{Seed: 5})
	for k := 1; k <= 8; k++ {
		wa, wb := p.Wait(k, a), p.Wait(k, b)
		if wa != wb {
			t.Fatalf("Wait(%d) diverged across same-seed injectors", k)
		}
		base := p.Wait(k, nil)
		if math.Abs(wa-base) > p.JitterFrac*base+1e-12 {
			t.Errorf("Wait(%d) jitter %v exceeds ±%v of %v", k, wa-base, p.JitterFrac, base)
		}
	}
}
