package deploy

import (
	"math/rand"
	"reflect"
	"testing"

	"coradd/internal/ilp"
)

// TestScheduleProgressDoesNotPerturb is deploy's half of the nil-sink
// byte-identity contract: arming a progress sink on the scheduling solve
// must not move any field of the schedule, and the emitted sample
// sequence must be bit-identical run to run.
func TestScheduleProgressDoesNotPerturb(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for trial := 0; trial < 10; trial++ {
		p := randProblem(rng, 9, 6, true)
		plain, err := Solve(p, Options{})
		if err != nil {
			t.Fatal(err)
		}
		var runs [][]ilp.ProgressSample
		for rep := 0; rep < 2; rep++ {
			var seq []ilp.ProgressSample
			observed, err := Solve(p, Options{
				Progress:      func(ps ilp.ProgressSample) { seq = append(seq, ps) },
				ProgressEvery: 32,
			})
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(plain, observed) {
				t.Fatalf("trial %d: observed schedule diverged from plain", trial)
			}
			runs = append(runs, seq)
		}
		if !reflect.DeepEqual(runs[0], runs[1]) {
			t.Fatalf("trial %d: sample sequences differ across runs", trial)
		}
		if len(runs[0]) < 2 || runs[0][0].Phase != "root" || runs[0][len(runs[0])-1].Phase != "final" {
			t.Fatalf("trial %d: malformed sample trail", trial)
		}
	}
}
