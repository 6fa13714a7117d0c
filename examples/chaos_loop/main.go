// Chaos loop: the adaptive redesign loop of examples/adaptive_loop run
// under an injected fault schedule. The same drifting SSB stream drives
// the controller, but now migration builds fail (and are retried with
// capped exponential backoff charged to the simulated timeline), builds
// run slow, and the controller process is killed mid-migration. Because
// every migration writes a step journal, the harness restores the
// controller from its captured State and the migration resumes from the
// completed prefix — the loop converges to the same destination design,
// just later and at a bounded extra cost. Everything is deterministic:
// the injector draws from its own seeded stream, so a replay fails the
// same builds at the same points.
package main

import (
	"errors"
	"fmt"

	"coradd"
)

func main() {
	rel := coradd.GenerateSSB(coradd.SSBConfig{
		Rows: 30_000, Customers: 1500, Suppliers: 200, Parts: 1000, Seed: 42,
	})
	cfg := coradd.SystemConfig{Seed: 7, FeedbackIters: 1}
	cfg.Candidates.Alphas = []float64{0, 0.25}
	cfg.Candidates.Restarts = 2
	cfg.Candidates.MaxInterleavings = 16
	budget := rel.HeapBytes() / 2

	sys, err := coradd.NewSystem(rel, coradd.SSBQueries(), cfg)
	must(err)
	initial, err := sys.Design(budget)
	must(err)
	fmt.Printf("initial design: %d objects for the 13-query base mix (%.1f MB budget)\n",
		len(initial.Chosen), float64(budget)/(1<<20))

	// The fault schedule: ~40% of build attempts fail (at most twice per
	// object, so every build eventually lands), ~30% run 1.5x slow, and
	// the controller is killed after its first completed build.
	faults := coradd.FaultConfig{
		Seed:             42,
		FailProb:         0.4,
		MaxFailsPerBuild: 2,
		DelayProb:        0.3,
		DelayFactor:      0.5,
		CrashAfterBuilds: []int{1},
	}
	retry := coradd.RetryPolicy{Retries: 3, Base: 0.01, Factor: 2, Max: 0.08, JitterFrac: 0.1}
	acfg := coradd.AdaptiveConfig{
		Budget: budget,
		Monitor: coradd.MonitorConfig{
			HalfLife:      2,
			MinObserved:   26,
			DistThreshold: 0.25,
		},
		CheckEvery: 13,
		Faults:     coradd.NewFaultInjector(faults),
		Retry:      retry,
	}
	ctl, err := sys.Adaptive(initial, acfg)
	must(err)

	// The same drifting stream as examples/adaptive_loop.
	base := coradd.SSBQueries()
	aug := coradd.SSBAugmentedQueries()
	var stream []*coradd.Query
	for r := 0; r < 6; r++ {
		stream = append(stream, base...)
	}
	shift := len(stream)
	for r := 0; r < 4; r++ {
		stream = append(stream, aug...)
	}
	fmt.Printf("stream: %d events (mix shifts at event %d)\n", len(stream), shift+1)
	fmt.Printf("faults: seed %d, fail prob %.0f%% (≤%d per build), delay prob %.0f%% (×%.1f), crash after build %v, retry %s\n\n",
		faults.Seed, 100*faults.FailProb, faults.MaxFailsPerBuild,
		100*faults.DelayProb, 1+faults.DelayFactor, faults.CrashAfterBuilds, retry)

	// Drive the stream one event at a time so an injected crash can be
	// caught and recovered: a crash ends the controller's life with the
	// journal intact; the harness restores from the controller's State and
	// re-runs the query whose execution the crash destroyed.
	var (
		cum     float64
		lives   []coradd.AdaptiveReport
		resumes int
	)
	for i := 0; i < len(stream); {
		_, err := ctl.Process(stream[i])
		if err == nil {
			i++
			continue
		}
		if !errors.Is(err, coradd.ErrCrash) {
			panic(err)
		}
		rep := ctl.Report()
		lives = append(lives, rep)
		cum += rep.Cum
		st := ctl.State()
		fmt.Printf("*** crash at t=%.2fs (event %d): %v\n", rep.Clock, i+1, err)
		fmt.Printf("*** restoring on design %s, migration in flight: %v\n\n",
			st.Design.Name, st.Journal != nil)
		ctl, err = sys.RestoreAdaptive(st, acfg)
		must(err)
		resumes++
	}
	rep := ctl.Report()
	lives = append(lives, rep)
	cum += rep.Cum

	for li, r := range lives {
		fmt.Printf("life %d:\n", li+1)
		for _, e := range r.Events {
			fmt.Printf("  t=%6.2fs  ev=%4d  %-14s %s\n", e.Clock, e.Observed, e.Kind, e.Detail)
		}
	}

	var retries, skips, builds, redesigns int
	for _, r := range lives {
		retries += r.Retries
		skips += r.SkippedBuilds
		builds += r.BuildsDone
		redesigns += r.Redesigns
	}
	fmt.Printf("\nchaos run: %.2f cumulative workload-seconds across %d controller lives\n", cum, len(lives))
	fmt.Printf("%d redesigns, %d builds deployed, %d retries, %d skipped builds; restored %d time(s)\n",
		redesigns, builds, retries, skips, resumes)
	fmt.Printf("final design: %s (%d objects), migrating at end: %v\n",
		ctl.Incumbent().Name, len(ctl.Incumbent().Chosen), ctl.Migrating())
}

func must(err error) {
	if err != nil {
		panic(err)
	}
}
