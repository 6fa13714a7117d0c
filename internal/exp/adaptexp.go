package exp

import (
	"fmt"

	"coradd/internal/adapt"
	"coradd/internal/costmodel"
	"coradd/internal/deploy"
	"coradd/internal/designer"
	"coradd/internal/feedback"
	"coradd/internal/ilp"
	"coradd/internal/query"
	"coradd/internal/scenario"
	"coradd/internal/ssb"
	"coradd/internal/workload"
)

// AdaptSegment is one checkpoint of the drift scenario: cumulative
// workload-seconds of the three contenders after the same stream prefix.
type AdaptSegment struct {
	// Events is the stream position; Clock the adaptive run's simulated
	// time there.
	Events int
	Clock  float64
	// AdaptCum/BaseCum/AugCum are cumulative measured workload-seconds of
	// the adaptive loop, the static base-mix design and the static
	// augmented-mix design.
	AdaptCum, BaseCum, AugCum float64
	// State labels the adaptive run's condition at the checkpoint.
	State string
}

// AdaptResult is the adapt ablation's typed outcome.
type AdaptResult struct {
	Segments []AdaptSegment
	// Final cumulative workload-seconds per contender.
	AdaptCum, BaseCum, AugCum float64
	// Report is the adaptive controller's trace.
	Report adapt.Report
	// BaseDesign/AugDesign are the two static designs; the adaptive run
	// starts on BaseDesign.
	BaseDesign, AugDesign *designer.Design
	// WarmNodes/ColdNodes compare the first changed redesign's final
	// selection instance solved warm (as the controller did) and cold —
	// the incremental-redesign claim, measured on the real instance.
	WarmNodes, ColdNodes int
	// PhaseAEvents/PhaseBEvents describe the stream split.
	PhaseAEvents, PhaseBEvents int
}

// AdaptBudgetMult is the ablation's space budget as a heap multiple. It
// sits below the deploy ablation's 2.0: the 52-template redesign
// instances stay in the proven-solve region there, so the warm-vs-cold
// node comparison measures pruning rather than two solves both hitting
// the node cap.
const AdaptBudgetMult = 0.5

// adaptStream builds the drifting chrono-SSB stream: phaseA rounds of the
// base 13-query mix, then phaseB sweeps of the augmented 52-query mix
// (which repeats the base templates with shifted literals and adds the
// variant templates — both templating behaviours the monitor must handle).
func adaptStream(phaseA, phaseB int) (stream []*query.Query, aEvents int) {
	base := ssb.Queries()
	aug := ssb.AugmentedQueries()
	for r := 0; r < phaseA; r++ {
		stream = append(stream, base...)
	}
	aEvents = len(stream)
	for r := 0; r < phaseB; r++ {
		stream = append(stream, aug...)
	}
	return stream, aEvents
}

// adaptLoopConfig builds the controller configuration shared by the
// adapt and chaos ablations, calibrating the monitor's half-life to the
// stream's simulated timescale (roughly four base-mix rounds). model/d
// supply the measurement the calibration prices the base mix with.
func adaptLoopConfig(env *scenario.Env, budget int64, cache *designer.ObjectCache,
	model costmodel.Model, d *designer.Design) (adapt.Config, error) {

	roundSec := 0.0
	for _, q := range env.W {
		sec, _, err := designer.MeasureTemplateTraced(env.St, env.Common.Disk, cache, model, d, q)
		if err != nil {
			return adapt.Config{}, err
		}
		roundSec += sec
	}
	return adapt.Config{
		Budget: budget,
		Cand:   env.Scale.Cand,
		FB:     feedback.Config{MaxIters: env.Scale.FB.MaxIters},
		Deploy: deploy.Options{MaxNodes: env.Common.Solve.MaxNodes},
		Monitor: workload.Config{
			// The half-life spans several augmented sweeps, so the decayed
			// distribution averages over whole mix cycles instead of
			// chasing the round-robin position inside one.
			HalfLife:      4 * roundSec,
			DistThreshold: 0.25,
			MinObserved:   2 * len(env.W),
		},
		CheckEvery: len(env.W),
		// One settling period between redesigns: the EWMA needs to catch
		// up with a shift before a second solve is worth its cost.
		MinGap: 8 * roundSec,
		Cache:  cache,
	}, nil
}

// AdaptAblation reproduces the adaptive-loop story on the chrono-loaded
// SSB scenario: the deployed design was solved for the base 13-query mix;
// mid-run the traffic shifts to the Figure-11 augmented 52-query mix. The
// adaptive controller (observe → drift → warm-started redesign → schedule
// → replan) is raced against both static designs on the identical stream,
// with every event charged its measured simulated seconds on whatever
// state serves it (designer.MeasureTemplateTraced, one shared materialization
// cache) — cumulative workload-seconds, the deploy objective extended to
// the whole serving timeline.
func AdaptAblation(s scenario.Scale) (*AdaptResult, *Table, error) {
	env := scenario.SSBChrono(s)
	budget := int64(AdaptBudgetMult * float64(env.Rel.HeapBytes()))
	cache := env.Evaluator().Cache

	// Static contender 1 (and the adaptive run's initial state): the
	// base-mix design.
	des1 := newCoradd(env, env.Scale.FB.MaxIters)
	dBase, err := des1.Design(budget)
	if err != nil {
		return nil, nil, err
	}
	// Static contender 2: the augmented-mix design, same pipeline.
	c2 := env.Common
	c2.W = ssb.AugmentedQueries()
	des2 := designer.NewCORADD(c2, env.Scale.Cand, env.Scale.FB)
	dAug, err := des2.Design(budget)
	if err != nil {
		return nil, nil, err
	}

	stream, aEvents := adaptStream(8, 8)

	cfg, err := adaptLoopConfig(env, budget, cache, des1.Model, dBase)
	if err != nil {
		return nil, nil, err
	}
	ctl, err := adapt.New(env.Common, dBase, cfg)
	if err != nil {
		return nil, nil, err
	}

	// Race the three contenders event by event on identical charging:
	// designer.MeasureTemplateTraced per (state, template), shared cache.
	fp := make(map[*query.Query]string)
	keyOf := func(q *query.Query) string {
		k, ok := fp[q]
		if !ok {
			k = workload.Fingerprint(q)
			fp[q] = k
		}
		return k
	}
	baseRates := make(map[string]float64)
	augRates := make(map[string]float64)
	staticSec := func(d *designer.Design, rates map[string]float64, q *query.Query) (float64, error) {
		k := keyOf(q)
		if sec, ok := rates[k]; ok {
			return sec, nil
		}
		sec, _, err := designer.MeasureTemplateTraced(env.St, env.Common.Disk, cache, des1.Model, d, q)
		if err != nil {
			return 0, err
		}
		rates[k] = sec
		return sec, nil
	}

	res := &AdaptResult{
		BaseDesign: dBase, AugDesign: dAug,
		PhaseAEvents: aEvents, PhaseBEvents: len(stream) - aEvents,
	}
	checkpoint := len(ssb.AugmentedQueries())
	for i, q := range stream {
		sec, err := ctl.Process(q)
		if err != nil {
			return nil, nil, err
		}
		res.AdaptCum += sec
		bs, err := staticSec(dBase, baseRates, q)
		if err != nil {
			return nil, nil, err
		}
		res.BaseCum += bs
		as, err := staticSec(dAug, augRates, q)
		if err != nil {
			return nil, nil, err
		}
		res.AugCum += as
		if (i+1)%checkpoint == 0 || i == len(stream)-1 {
			state := "serving"
			if ctl.Migrating() {
				state = "migrating"
			}
			if i < aEvents {
				state += " (base mix)"
			} else {
				state += " (augmented mix)"
			}
			res.Segments = append(res.Segments, AdaptSegment{
				Events: i + 1, Clock: ctl.Clock(),
				AdaptCum: res.AdaptCum, BaseCum: res.BaseCum, AugCum: res.AugCum,
				State: state,
			})
		}
	}
	res.Report = ctl.Report()

	// The incremental-redesign claim on the real instance: the first
	// changed redesign's final selection problem, solved warm (the
	// controller's own node count) versus cold.
	for _, ri := range res.Report.RedesignLog {
		if !ri.Changed || ri.Solve == nil {
			continue
		}
		res.WarmNodes = ri.Solve.Sol.Nodes
		cold := ilp.Solve(ri.Solve.Prob, env.Common.Solve)
		res.ColdNodes = cold.Nodes
		break
	}

	t := &Table{
		ID:     "Ablation adapt",
		Title:  "Adaptive redesign loop vs static designs on the drifting chrono-SSB stream (measured workload-seconds)",
		Header: []string{"events", "clock_s", "cum_adapt", "cum_base", "cum_aug", "adaptive_state"},
	}
	for _, seg := range res.Segments {
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%d", seg.Events), f2(seg.Clock),
			f2(seg.AdaptCum), f2(seg.BaseCum), f2(seg.AugCum), seg.State,
		})
	}
	t.Notes = append(t.Notes,
		fmt.Sprintf("stream: %d base-mix events, then %d augmented-mix events (shift at event %d)",
			res.PhaseAEvents, res.PhaseBEvents, res.PhaseAEvents+1),
		fmt.Sprintf("cumulative workload-seconds: adaptive %.2f vs static-base %.2f vs static-augmented %.2f",
			res.AdaptCum, res.BaseCum, res.AugCum),
		fmt.Sprintf("adaptive trace: %d redesigns, %d builds, %d replans over %.2f simulated seconds",
			res.Report.Redesigns, res.Report.BuildsDone, res.Report.Replans, res.Report.Clock),
		fmt.Sprintf("incremental redesign: warm-started solve %d nodes vs cold %d on the same instance",
			res.WarmNodes, res.ColdNodes))
	for _, e := range res.Report.Events {
		t.Notes = append(t.Notes, fmt.Sprintf("t=%.2fs ev=%d %s: %s", e.Clock, e.Observed, e.Kind, e.Detail))
	}
	return res, t, nil
}
