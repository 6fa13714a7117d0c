package exp

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"time"

	"coradd/internal/adapt"
	"coradd/internal/deploy"
	"coradd/internal/designer"
	"coradd/internal/feedback"
	"coradd/internal/obs"
	"coradd/internal/query"
	"coradd/internal/scenario"
	"coradd/internal/server"
	"coradd/internal/ssb"
	"coradd/internal/workload"
)

// ServingPhase is one row of the latency-under-migration table: the
// latency distribution of every event served in one phase of the
// adaptive timeline.
type ServingPhase struct {
	// Phase is before | during | after (relative to migration activity).
	Phase string
	// Events counts stream events charged to the phase.
	Events int
	// P50/P95/P99/Mean are simulated per-query seconds.
	P50, P95, P99, Mean float64
}

// ServingResult is the serving-latency experiment's typed outcome.
type ServingResult struct {
	Phases []ServingPhase
	// Report is the replayed controller's trace.
	Report adapt.Report
	// Live summarizes the multi-client HTTP pass (interleaving-invariant
	// facts only — the replay above owns the percentiles).
	Live LiveSummary
}

// LiveSummary records what the multi-client load generator proved
// against a live daemon. Every field is invariant under goroutine
// interleaving, so the rendered notes stay deterministic run-to-run.
type LiveSummary struct {
	// Clients and PerClient describe the fixed load plan; Extra counts
	// single-threaded top-up requests posted until the migration landed.
	Clients   int
	PerClient int
	Extra     int
	// OK counts 200 responses across plan + top-up; Dropped the
	// observation-queue drops (zero by construction: the queue is sized
	// for the whole run).
	OK      int
	Dropped int64
	// Redesigned/Migrated report that the daemon crossed a full
	// drift→redesign→migration cycle while serving.
	Redesigned bool
	Migrated   bool
	// MetricsMatch reports that the /metrics scrape's /query latency
	// histogram count equals the requests actually served — the
	// instrumentation sees every request exactly once.
	MetricsMatch bool
	// TraceSeen reports that /statusz carried recent controller trace
	// events after the migration.
	TraceSeen bool
}

// servingPhaseName labels the three timeline phases.
var servingPhaseNames = [3]string{"before", "during", "after"}

// ServingLatency measures query latency around an adaptive migration,
// twice. First a deterministic replay: the adapt ablation's drifting
// stream is fed through a controller event by event, and each event's
// measured simulated seconds go into a per-phase latency histogram —
// before any migration, while builds are in flight, and after the last
// build lands. Those histograms are the table: the p50/p95/p99 shift
// "during" quantifies the serving cost of migrating, and its recovery
// "after" the payoff. Second, a live pass: the same environment behind a
// real HTTP daemon, N client goroutines posting the drifted mix until
// the daemon crosses the same migration under concurrent load, then a
// /metrics scrape is checked against the served count. The replay owns
// every number (simulated clock, single goroutine — byte-stable); the
// live pass contributes only interleaving-invariant facts.
func ServingLatency(s scenario.Scale) (*ServingResult, *Table, error) {
	env := scenario.SSBChrono(s)
	budget := int64(AdaptBudgetMult * float64(env.Rel.HeapBytes()))
	cache := env.Evaluator().Cache

	des := newCoradd(env, env.Scale.FB.MaxIters)
	dBase, err := des.Design(budget)
	if err != nil {
		return nil, nil, err
	}
	cfg, err := adaptLoopConfig(env, budget, cache, des.Model, dBase)
	if err != nil {
		return nil, nil, err
	}

	// --- Deterministic replay: per-phase latency histograms. ---
	ctl, err := adapt.New(env.Common, dBase, cfg)
	if err != nil {
		return nil, nil, err
	}
	reg := obs.NewRegistry()
	hists := [3]*obs.Histogram{}
	for i, name := range servingPhaseNames {
		hists[i] = reg.Histogram("replay_latency_"+name, "per-event simulated seconds")
	}
	counts := [3]int{}
	stream, _ := adaptStream(8, 8)
	phase, migSeen := 0, false
	for _, q := range stream {
		sec, err := ctl.Process(q)
		if err != nil {
			return nil, nil, err
		}
		if ctl.Migrating() {
			migSeen = true
			phase = 1
		} else if migSeen {
			phase = 2
		}
		hists[phase].Observe(sec)
		counts[phase]++
	}
	res := &ServingResult{Report: ctl.Report()}
	for i, name := range servingPhaseNames {
		if counts[i] == 0 {
			continue
		}
		h := hists[i]
		res.Phases = append(res.Phases, ServingPhase{
			Phase: name, Events: counts[i],
			P50: h.Quantile(0.50), P95: h.Quantile(0.95), P99: h.Quantile(0.99),
			Mean: h.Sum() / float64(h.Count()),
		})
	}

	// --- Live pass: the same crossing under real concurrent HTTP load. ---
	live, err := servingLiveLoad(s)
	if err != nil {
		return nil, nil, err
	}
	res.Live = *live

	t := &Table{
		ID:     "Experiment serving-latency",
		Title:  "Per-query latency before/during/after the adaptive migration (simulated ms, deterministic replay)",
		Header: []string{"phase", "events", "p50_ms", "p95_ms", "p99_ms", "mean_ms"},
	}
	for _, p := range res.Phases {
		t.Rows = append(t.Rows, []string{
			p.Phase, fmt.Sprintf("%d", p.Events),
			ms(p.P50), ms(p.P95), ms(p.P99), ms(p.Mean),
		})
	}
	t.Notes = append(t.Notes,
		fmt.Sprintf("replay: %d redesigns, %d builds, %d replans over %.2f simulated seconds",
			res.Report.Redesigns, res.Report.BuildsDone, res.Report.Replans, res.Report.Clock),
		fmt.Sprintf("live pass: %d clients x %d requests against a live HTTP daemon, plus single-threaded top-up until the migration landed",
			live.Clients, live.PerClient),
		fmt.Sprintf("live pass: every response 200=%v, observation drops=%d, redesigned=%v, migration completed=%v",
			live.OK == live.Clients*live.PerClient+live.Extra, live.Dropped, live.Redesigned, live.Migrated),
		fmt.Sprintf("live pass: /metrics query-latency histogram count matched served requests=%v, /statusz trace populated=%v",
			live.MetricsMatch, live.TraceSeen))
	return res, t, nil
}

// servingLiveLoad drives a real server.Server over HTTP with concurrent
// clients through the drift scenario and verifies the observability
// plumbing end to end. Returned facts are interleaving-invariant.
//
// The pass runs on its own small environment (a 6000-row SSB at the
// quick scale's seed and synopsis size, with a 200k-node solver cap)
// rather than the replay's: the inline redesign must finish in seconds
// while clients are live, and the replay above already owns every
// performance number at full scale — this pass only proves the plumbing
// under real concurrency.
func servingLiveLoad(s scenario.Scale) (*LiveSummary, error) {
	small := scenario.QuickScale()
	small.SSBRows, small.Seed = 6000, s.Seed
	env := scenario.SSB(small, false)
	common := env.Common
	common.Solve.MaxNodes = 200_000
	cand := small.Cand
	budget := env.Rel.HeapBytes() * 2
	des := designer.NewCORADD(common, cand, feedback.Config{MaxIters: 1})
	dBase, err := des.Design(budget)
	if err != nil {
		return nil, err
	}
	acfg := adapt.Config{
		Budget: budget,
		Cand:   cand,
		FB:     feedback.Config{MaxIters: 1},
		Deploy: deploy.Options{MaxNodes: 200_000},
		// An undecayed monitor: the cumulative mix distribution is
		// insensitive to how client goroutines interleave, so drift
		// triggers at (nearly) the same stream depth every run.
		Monitor: workload.Config{
			HalfLife:      1e9,
			MinObserved:   13,
			DistThreshold: 0.2,
		},
		CheckEvery:      13,
		ReplanTolerance: -1,
	}

	const clients = 4
	base := ssb.Queries()
	aug := ssb.AugmentedQueries()
	// Per-client plan: one base-mix round, then three augmented sweeps —
	// across 4 clients the drifted mix dominates the undecayed
	// distribution well past the trigger threshold.
	var plan []*query.Query
	plan = append(plan, base...)
	for r := 0; r < 3; r++ {
		plan = append(plan, aug...)
	}
	total := clients * len(plan)

	reg := obs.NewRegistry()
	tr := obs.NewTracer(obs.DefaultTraceEvents)
	scfg := server.Config{
		Adapt:    acfg,
		ObsQueue: 4 * total, // never drop: queue outlives plan + top-up
		Metrics:  reg,
		Trace:    tr,
	}
	srv := server.NewStarting(scfg)
	ctl, err := adapt.New(common, dBase, srv.AdaptConfig())
	if err != nil {
		return nil, err
	}
	srv.Attach(common, ctl)
	if err := srv.Start(); err != nil {
		return nil, err
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	// post sends the full query document — the augmented-mix variants are
	// not in the daemon's 13-query catalog, so name references would 400.
	post := func(q *query.Query) (int, error) {
		body, err := json.Marshal(q)
		if err != nil {
			return 0, err
		}
		resp, err := http.Post(ts.URL+"/query", "application/json", bytes.NewReader(body))
		if err != nil {
			return 0, err
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return resp.StatusCode, nil
	}

	sum := &LiveSummary{Clients: clients, PerClient: len(plan)}
	okCh := make(chan int, clients)
	errCh := make(chan error, clients)
	for c := 0; c < clients; c++ {
		go func() {
			ok := 0
			for _, q := range plan {
				code, err := post(q)
				if err != nil {
					errCh <- err
					return
				}
				if code == http.StatusOK {
					ok++
				}
			}
			okCh <- ok
		}()
	}
	for c := 0; c < clients; c++ {
		select {
		case n := <-okCh:
			sum.OK += n
		case err := <-errCh:
			return nil, err
		}
	}

	// Drain: the controller consumes observations asynchronously; wait
	// until everything posted so far has been processed.
	drain := func(want int64) error {
		deadline := time.Now().Add(5 * time.Minute)
		for time.Now().Before(deadline) {
			st := srv.Status()
			if st.Observed+st.Dropped >= want {
				return nil
			}
			time.Sleep(2 * time.Millisecond)
		}
		return fmt.Errorf("serving live pass: controller stalled at %d/%d observations",
			srv.Status().Observed, want)
	}
	if err := drain(int64(total)); err != nil {
		return nil, err
	}

	// Top up single-threaded until the in-flight migration (if any)
	// lands: builds advance on the simulated clock, which only moves when
	// queries are served.
	for sweep := 0; sweep < 64 && srv.Status().Migrating; sweep++ {
		for _, q := range aug {
			code, err := post(q)
			if err != nil {
				return nil, err
			}
			if code == http.StatusOK {
				sum.OK++
			}
			sum.Extra++
		}
		if err := drain(int64(total + sum.Extra)); err != nil {
			return nil, err
		}
	}

	st := srv.Status()
	sum.Dropped = st.Dropped
	sum.Redesigned = st.Redesigns > 0
	sum.Migrated = st.Redesigns > 0 && !st.Migrating && st.BuildsDone > 0
	sum.TraceSeen = len(st.Trace) > 0

	// Scrape /metrics over the wire and compare the /query latency
	// histogram's count against the daemon's own served counter.
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		return nil, err
	}
	scrape, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return nil, err
	}
	sum.MetricsMatch = scrapeCount(string(scrape),
		`coradd_http_request_seconds_count{route="/query"}`) == st.Served

	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		return nil, err
	}
	return sum, nil
}

// scrapeCount extracts one sample's value from a Prometheus text
// scrape; absent series count as zero.
func scrapeCount(scrape, series string) int64 {
	for _, line := range strings.Split(scrape, "\n") {
		if rest, ok := strings.CutPrefix(line, series+" "); ok {
			v, err := strconv.ParseFloat(strings.TrimSpace(rest), 64)
			if err != nil {
				return 0
			}
			return int64(v)
		}
	}
	return 0
}

func ms(sec float64) string { return fmt.Sprintf("%.3f", sec*1e3) }
