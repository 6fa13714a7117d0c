package exp

import (
	"errors"
	"fmt"

	"coradd/internal/adapt"
	"coradd/internal/designer"
	"coradd/internal/fault"
	"coradd/internal/scenario"
)

// ChaosResult is the chaos ablation's typed outcome: the same drifting
// chrono-SSB adaptive run twice — fault-free, then under an injected
// fault schedule (build failures with retry/backoff, build delays, and a
// mid-migration crash recovered through the journal) — on the identical
// stream and identical measurement.
type ChaosResult struct {
	// FreeCum/ChaosCum are cumulative measured workload-seconds of the
	// fault-free and faulted runs over the whole stream.
	FreeCum, ChaosCum float64
	// FreeReport is the fault-free controller's trace; ChaosLives one
	// trace per controller lifetime of the faulted run (a crash ends a
	// life, Resume starts the next).
	FreeReport adapt.Report
	ChaosLives []adapt.Report
	// Resumes counts journal recoveries; the remaining counters aggregate
	// the faulted run's lives.
	Resumes       int
	Retries       int
	SkippedBuilds int
	BuildsDone    int
	Redesigns     int
	Replans       int
	// FreeFinal/ChaosFinal are each run's final target design;
	// FreeMigrating/ChaosMigrating whether a migration was still in
	// flight when the stream ended.
	FreeFinal, ChaosFinal         *designer.Design
	FreeMigrating, ChaosMigrating bool
	// Faults/Retry echo the injected schedule for the report.
	Faults fault.Config
	Retry  fault.RetryPolicy
}

// ChaosCumBound is the ablation's stated degradation bound: the faulted
// run's cumulative workload-seconds must stay within this factor of the
// fault-free run's. Retries, delays and the crash slow the migration
// down — workload served longer at un-migrated rates — but bounded fault
// mass must not change the destination or blow up the bill.
const ChaosCumBound = 1.5

// chaosFaults is the injected schedule: probabilistic build failures
// (each object capped below the retry budget, so every build eventually
// lands and the run converges), probabilistic build delays, and one
// crash after the second completed build — exercising retry/backoff,
// delay absorption and journal recovery in a single run.
func chaosFaults() (fault.Config, fault.RetryPolicy) {
	cfg := fault.Config{
		Seed:             42,
		FailProb:         0.4,
		MaxFailsPerBuild: 2,
		DelayProb:        0.3,
		DelayFactor:      0.5,
		CrashAfterBuilds: []int{2},
	}
	// Backoff waits sized to the simulated stream (seconds-scale): small
	// enough that retries resolve within it, real enough to cost.
	pol := fault.RetryPolicy{Retries: 3, Base: 0.01, Factor: 2, Max: 0.08, JitterFrac: 0.1}
	return cfg, pol
}

// sameDesignObjects reports whether two designs deploy the same object
// set (by structural key) — the chaos ablation's convergence check.
func sameDesignObjects(a, b *designer.Design) bool {
	if a == nil || b == nil || len(a.Chosen) != len(b.Chosen) {
		return false
	}
	keys := make(map[string]int, len(a.Chosen))
	for _, md := range a.Chosen {
		keys[md.Key()]++
	}
	for _, md := range b.Chosen {
		if keys[md.Key()] == 0 {
			return false
		}
		keys[md.Key()]--
	}
	return true
}

// ChaosAblation runs the adaptive loop on the drifting chrono-SSB stream
// twice: once fault-free, once under chaosFaults — injected build
// failures retried with capped exponential backoff (waits charged to the
// simulated timeline), injected build slowdowns, and an injected process
// crash mid-migration recovered by rebuilding the controller from its
// step journal (adapt.Resume). The faulted run must converge to the same
// final design and stay within ChaosCumBound of the fault-free bill —
// robustness as a measured property, not a hope.
func ChaosAblation(s scenario.Scale) (*ChaosResult, *Table, error) {
	env := scenario.SSBChrono(s)
	budget := int64(AdaptBudgetMult * float64(env.Rel.HeapBytes()))
	cache := env.Evaluator().Cache

	des1 := newCoradd(env, env.Scale.FB.MaxIters)
	dBase, err := des1.Design(budget)
	if err != nil {
		return nil, nil, err
	}
	stream, _ := adaptStream(8, 8)
	cfg, err := adaptLoopConfig(env, budget, cache, des1.Model, dBase)
	if err != nil {
		return nil, nil, err
	}

	res := &ChaosResult{}
	res.Faults, res.Retry = chaosFaults()

	// Fault-free reference: the exact run the adapt ablation traces (a
	// nil injector takes the pre-fault-layer code paths, byte for byte).
	free, err := adapt.New(env.Common, dBase, cfg)
	if err != nil {
		return nil, nil, err
	}
	freeRep, err := free.Run(stream)
	if err != nil {
		return nil, nil, err
	}
	res.FreeReport = freeRep
	res.FreeCum = freeRep.Cum
	res.FreeFinal = free.Incumbent()
	res.FreeMigrating = free.Migrating()

	// Faulted run: same stream, same config, plus the injected schedule.
	// A crash ends the controller's life with the journal intact; the
	// harness rebuilds from the journal and re-executes the query whose
	// execution the crash destroyed.
	cfgF := cfg
	cfgF.Faults = fault.New(res.Faults)
	cfgF.Retry = res.Retry
	ctl, err := adapt.New(env.Common, dBase, cfgF)
	if err != nil {
		return nil, nil, err
	}
	for i := 0; i < len(stream); {
		_, err := ctl.Process(stream[i])
		if err == nil {
			i++
			continue
		}
		if !errors.Is(err, fault.ErrCrash) {
			return nil, nil, err
		}
		rep := ctl.Report()
		res.ChaosLives = append(res.ChaosLives, rep)
		res.ChaosCum += rep.Cum
		j := ctl.Journal()
		commonR := env.Common
		commonR.W = ctl.Mon.Snapshot()
		ctl, err = adapt.Resume(commonR, ctl.Incumbent(), j, cfgF)
		if err != nil {
			return nil, nil, err
		}
		res.Resumes++
	}
	rep := ctl.Report()
	res.ChaosLives = append(res.ChaosLives, rep)
	res.ChaosCum += rep.Cum
	res.ChaosFinal = ctl.Incumbent()
	res.ChaosMigrating = ctl.Migrating()
	for _, r := range res.ChaosLives {
		res.Retries += r.Retries
		res.SkippedBuilds += r.SkippedBuilds
		res.BuildsDone += r.BuildsDone
		res.Redesigns += r.Redesigns
		res.Replans += r.Replans
	}

	t := &Table{
		ID:     "Ablation chaos",
		Title:  "Fault-injected adaptive run vs fault-free on the drifting chrono-SSB stream (measured workload-seconds)",
		Header: []string{"run", "cum_ws", "redesigns", "builds", "retries", "skips", "resumes", "final_design", "migrating_at_end"},
	}
	t.Rows = append(t.Rows,
		[]string{"fault-free", f2(res.FreeCum), fmt.Sprintf("%d", freeRep.Redesigns),
			fmt.Sprintf("%d", freeRep.BuildsDone), "0", "0", "0",
			res.FreeFinal.Name, fmt.Sprintf("%v", res.FreeMigrating)},
		[]string{"chaos", f2(res.ChaosCum), fmt.Sprintf("%d", res.Redesigns),
			fmt.Sprintf("%d", res.BuildsDone), fmt.Sprintf("%d", res.Retries),
			fmt.Sprintf("%d", res.SkippedBuilds), fmt.Sprintf("%d", res.Resumes),
			res.ChaosFinal.Name, fmt.Sprintf("%v", res.ChaosMigrating)})
	t.Notes = append(t.Notes,
		fmt.Sprintf("fault schedule: seed %d, fail prob %.2f (≤%d per build), delay prob %.2f (×%.1f), crash after builds %v, %s",
			res.Faults.Seed, res.Faults.FailProb, res.Faults.MaxFailsPerBuild,
			res.Faults.DelayProb, 1+res.Faults.DelayFactor, res.Faults.CrashAfterBuilds, res.Retry),
		fmt.Sprintf("degradation: chaos cum %.2f = %.3f× fault-free %.2f (stated bound %.2f×)",
			res.ChaosCum, res.ChaosCum/res.FreeCum, res.FreeCum, ChaosCumBound),
		fmt.Sprintf("convergence: same final design object set = %v",
			sameDesignObjects(res.FreeFinal, res.ChaosFinal)))
	for li, r := range res.ChaosLives {
		for _, e := range r.Events {
			t.Notes = append(t.Notes, fmt.Sprintf("life %d t=%.2fs ev=%d %s: %s",
				li+1, e.Clock, e.Observed, e.Kind, e.Detail))
		}
	}
	return res, t, nil
}
