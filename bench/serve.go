package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"path/filepath"
	"sync/atomic"
	"time"

	"coradd/internal/query"
	"coradd/internal/ssb"
)

// solverNodeCap bounds every branch-and-bound solve the benchmark causes
// (the designer's in design_ssb52, the daemon's redesign in serve_drift,
// via the CORADD_SOLVER_MAXNODES knob cmd/coraddd already honours). The
// product default of 5M makes one capped solve cost ≈4.5 s on 2 cores and
// a design pass ≈19 s — more than a whole run may take; 500k keeps the
// capped instances capped (the search is cut, not finished) at ≈0.6 s
// each, so a run designs for three or four synopses instead of one.
const solverNodeCap = 500_000

// setupReps is how many times a run sets up, so setup_s is a median.
const setupReps = 3

const queryHistogramCount = `coradd_http_request_seconds_count{route="/query"}`

func nameBody(q *query.Query) []byte {
	b, _ := json.Marshal(map[string]string{"name": q.Name})
	return b
}

func docBody(q *query.Query) ([]byte, error) { return json.Marshal(q) }

// catalogBodies returns, per catalog template, the {"name":…} reference
// and the full query document.
func catalogBodies() (names, docs [][]byte, err error) {
	for _, q := range ssb.Queries() {
		doc, err := docBody(q)
		if err != nil {
			return nil, nil, err
		}
		names = append(names, nameBody(q))
		docs = append(docs, doc)
	}
	return names, docs, nil
}

// steadyMix is the stationary request sequence of serve_steady: a seeded
// shuffle over the 13 catalog templates, each request a coin flip
// between the name reference and the document.
func steadyMix(seed int64, n int, names, docs [][]byte) [][]byte {
	rng := rand.New(rand.NewSource(seed))
	seq := make([][]byte, n)
	for i := range seq {
		t := rng.Intn(len(names))
		if rng.Intn(2) == 0 {
			seq[i] = names[t]
		} else {
			seq[i] = docs[t]
		}
	}
	return seq
}

// warmUp sends every distinct body twice over one connection, so the
// cold pricing of each template (which materializes objects) is paid
// before anything is timed.
func warmUp(c *client, bodies [][]byte) error {
	for round := 0; round < 2; round++ {
		for _, b := range bodies {
			if !c.post(b) {
				return fmt.Errorf("warm-up request %s failed", b)
			}
		}
	}
	return nil
}

// setUpDaemon starts the daemon setupReps times (each a cold start with
// its own checkpoint path, when one is used) and keeps the last one
// running; setup_s is the median of exec → /readyz 200 + warm-up.
func setUpDaemon(cfg *runConfig, logName string, env []string, warm [][]byte, args func(rep int) []string) (*daemon, []float64, error) {
	var setups []float64
	for rep := 0; ; rep++ {
		d, _, err := startDaemon(cfg.daemonBin, filepath.Join(cfg.tmpDir, logName), env, args(rep)...)
		if err != nil {
			return nil, nil, err
		}
		c := newClients(1, d.url)[0]
		err = warmUp(c, warm)
		c.close()
		if err != nil {
			return nil, nil, d.fail("%v", err)
		}
		setups = append(setups, sec(time.Since(d.started)))
		if rep == setupReps-1 {
			return d, setups, nil
		}
		d.kill()
	}
}

// sweepRates are the fixed open-loop rates of serve_steady, in req/s;
// p50_ms and p99_ms are quoted at reportRate.
var sweepRates = []float64{1000, 2000, 4000}

const reportRate = 2000

// runServeSteady is the pure request path: a real coraddd over TCP with
// drift detection parked, so the designer, solver and executor idle.
func runServeSteady(cfg *runConfig) (*workloadResult, error) {
	res := newResult("serve_steady", cfg.seed)
	names, docs, err := catalogBodies()
	if err != nil {
		return nil, err
	}
	seq := steadyMix(cfg.seed, 1<<14, names, docs)
	d, setups, err := setUpDaemon(cfg, "steady.log", nil, append(names, docs...), func(int) []string {
		return []string{"-rows", "20000", "-minobserved", "1000000000"}
	})
	if err != nil {
		return nil, err
	}
	defer d.kill()
	res.set("setup_s", median(setups), len(setups))

	clients := newClients(cfg.clients, d.url)
	defer func() {
		for _, c := range clients {
			c.close()
		}
	}()
	send := func(sender, i int) bool { return clients[sender].post(seq[i%len(seq)]) }

	before, err := d.status()
	if err != nil {
		return nil, err
	}
	closed := closedLoop(cfg.clients, cfg.phase(0.3), send)
	after, err := d.status()
	if err != nil {
		return nil, err
	}
	res.set("qps", float64(closed.Attempted-closed.Failed)/closed.Elapsed.Seconds(), closed.Attempted)
	res.set("obs_drop_ratio", ratio(after.Dropped-before.Dropped, after.Served-before.Served), int(after.Served-before.Served))
	cfg.logf("closed loop %d clients: %s", cfg.clients, closed)

	attempted, failed := closed.Attempted, closed.Failed
	maxOK := 0.0
	for _, rate := range sweepRates {
		open := openLoop(cfg.clients, rate, cfg.phase(0.2), nil, send)
		cfg.logf("open loop %g req/s: %s", rate, open)
		attempted += open.Attempted
		failed += open.Failed
		if meetsLimit(open) {
			maxOK = rate
		}
		if rate == reportRate {
			dist := summarize(open.LatencyMS, open.Failed)
			res.setDist("p50_ms", dist.P50, dist)
			if dist.P99 > 0 {
				res.setDist("p99_ms", dist.P99, dist)
			}
			res.layer("server.late_ms", median(open.LateMS), len(open.LateMS))
		}
	}
	res.layer("server.max_ok_rps", maxOK, len(sweepRates))
	res.Attempted, res.Failed = attempted, failed
	res.set("fail_ratio", ratio(int64(failed), int64(attempted)), attempted)

	final, err := d.status()
	if err != nil {
		return nil, err
	}
	series, err := d.scrape(queryHistogramCount)
	if err != nil {
		return nil, err
	}
	if got := int64(series[queryHistogramCount]); got != final.Served {
		return nil, fmt.Errorf("serve_steady: /metrics counted %d /query requests, /statusz served %d", got, final.Served)
	}
	res.check("/metrics /query histogram count == /statusz served == %d", final.Served)
	if failed > 0 {
		return nil, fmt.Errorf("serve_steady: %d of %d requests failed", failed, attempted)
	}
	res.check("all %d requests answered 200", attempted)
	daemonCounters(res, final)
	rss, err := d.peakRSSMB()
	if err != nil {
		return nil, err
	}
	res.set("rss_mb", rss, 1)
	return res, nil
}

// perSecondMedians renders the median latency of each second of an
// open-loop phase, for the run log: a stall shows as a step.
func perSecondMedians(r loadResult, rate float64) string {
	var out string
	var window []float64
	second := 0
	for k, idx := range r.Index {
		if int(float64(idx)/rate) != second {
			out += fmt.Sprintf(" %.2f", median(window))
			window, second = window[:0], int(float64(idx)/rate)
		}
		window = append(window, r.LatencyMS[k])
	}
	return out + fmt.Sprintf(" %.2f", median(window))
}

// daemonCounters records the daemon's own end-of-run counters.
func daemonCounters(res *workloadResult, st daemonStatus) {
	res.layer("server.served", float64(st.Served), 1)
	res.layer("server.dropped", float64(st.Dropped), 1)
	res.layer("server.shed", float64(st.Shed), 1)
	res.layer("server.timeouts", float64(st.Timeouts), 1)
	res.layer("adapt.redesigns", float64(st.Redesigns), 1)
	res.layer("adapt.builds_done", float64(st.BuildsDone), 1)
}

func ratio(num, den int64) float64 {
	if den <= 0 {
		return 0
	}
	return float64(num) / float64(den)
}

// driftRate is serve_drift's open-loop rate in req/s; driftCap how long
// the harness waits for the redesign to deploy before it gives up.
const (
	driftRate = 300
	driftCap  = 60 * time.Second
)

// runServeDrift is the only workload where solve, build, checkpoint
// write and serving contend in one process, and the only one that
// exercises durable and cold re-pricing after a restart.
func runServeDrift(cfg *runConfig) (*workloadResult, error) {
	res := newResult("serve_drift", cfg.seed)
	catalog := ssb.Queries()
	aug := ssb.AugmentedQueries()
	rng := rand.New(rand.NewSource(cfg.seed))

	// The base phase sends whole seeded permutations of the catalog: every
	// 13 observations are exactly the mix the initial design was solved
	// for, so a sampling fluctuation cannot trigger a redesign early.
	var base [][]byte
	for cycle := 0; cycle < 64; cycle++ {
		for _, t := range rng.Perm(len(catalog)) {
			base = append(base, nameBody(catalog[t]))
		}
	}
	// The drifted phase sends the 52 augmented documents round-robin from
	// a seeded starting permutation.
	drift := make([][]byte, len(aug))
	for i, t := range rng.Perm(len(aug)) {
		doc, err := docBody(aug[t])
		if err != nil {
			return nil, err
		}
		drift[i] = doc
	}

	env := []string{fmt.Sprintf("CORADD_SOLVER_MAXNODES=%d", solverNodeCap)}
	ckpt := func(rep int) string { return filepath.Join(cfg.tmpDir, fmt.Sprintf("drift-%d.checkpoint", rep)) }
	args := func(rep int) []string {
		return []string{"-rows", "60000", "-budget", "2", "-checkpoint", ckpt(rep)}
	}
	d, setups, err := setUpDaemon(cfg, "drift.log", env, base[:len(catalog)], args)
	if err != nil {
		return nil, err
	}
	defer func() { d.kill() }()
	res.set("setup_s", median(setups), len(setups))

	clients := newClients(cfg.clients, d.url)
	defer func() {
		for _, c := range clients {
			c.close()
		}
	}()

	basePhase := openLoop(cfg.clients, driftRate, cfg.phase(0.5), nil, func(sender, i int) bool {
		return clients[sender].post(base[i%len(base)])
	})
	cfg.logf("base mix at %d req/s: %s", driftRate, basePhase)
	before, err := d.status()
	if err != nil {
		return nil, err
	}
	if before.Redesigns != 0 {
		return nil, fmt.Errorf("serve_drift: the stationary base mix triggered %d redesigns", before.Redesigns)
	}

	// Poll /statusz beside the drifted load; once the redesign has been
	// solved, built and deployed keep sending for a little longer, then
	// stop the generator. Only a little: the monitor is undecayed, so the
	// mix keeps moving away from the rebased baseline, and a few seconds
	// on a second redesign starts and the kill lands mid-migration.
	var stop atomic.Bool
	var deployedAt atomic.Int64 // UnixNano; 0 = not yet
	pollDone := make(chan error, 1)
	go func() {
		for !stop.Load() {
			st, err := d.status()
			if err != nil {
				stop.Store(true)
				pollDone <- err
				return
			}
			if deployedAt.Load() == 0 && st.Redesigns > before.Redesigns && !st.Migrating {
				deployedAt.Store(time.Now().UnixNano())
			}
			if at := deployedAt.Load(); at != 0 && time.Since(time.Unix(0, at)) >= cfg.phase(0.1) {
				stop.Store(true)
			}
			time.Sleep(20 * time.Millisecond)
		}
		pollDone <- nil
	}()
	driftPhase := openLoop(cfg.clients, driftRate, driftCap, &stop, func(sender, i int) bool {
		return clients[sender].post(drift[i%len(drift)])
	})
	stop.Store(true)
	if err := <-pollDone; err != nil {
		return nil, fmt.Errorf("serve_drift: polling /statusz: %v", err)
	}
	cfg.logf("drifted mix at %d req/s: %s", driftRate, driftPhase)
	if deployedAt.Load() == 0 {
		return nil, d.fail("no redesign deployed within %s of the workload shift", driftCap)
	}
	adapt := time.Unix(0, deployedAt.Load()).Sub(driftPhase.Start)
	res.set("adapt_s", sec(adapt), 1)

	// Between the shift and the deployment the latency distribution is
	// bimodal — sub-millisecond while the controller solves, tens of
	// milliseconds while new templates are priced cold and objects are
	// built — and the stalls cover about half of that window, so its
	// median flips between the modes from run to run. p50_ms is therefore
	// taken over every open-loop request of the run, which sits in the
	// quiet mode unless the stalls grow past half of the whole run; the
	// window's own median and tail are reported beside it.
	var during []float64
	for k, idx := range driftPhase.Index {
		if time.Duration(float64(idx)/driftRate*float64(time.Second)) <= adapt {
			during = append(during, driftPhase.LatencyMS[k])
		}
	}
	window := summarize(during, driftPhase.Failed)
	cfg.logf("drifted mix, median latency per second from the shift (ms):%s", perSecondMedians(driftPhase, driftRate))
	res.layer("server.drift_p50_ms", window.P50, window.N)
	res.layer("server.drift_p99_ms", window.Tail, window.N)
	dist := summarize(append(append([]float64{}, basePhase.LatencyMS...), driftPhase.LatencyMS...), basePhase.Failed+driftPhase.Failed)
	res.setDist("p50_ms", dist.P50, dist)

	after, err := d.status()
	if err != nil {
		return nil, err
	}
	served := after.Served - before.Served
	res.set("obs_drop_ratio", ratio(after.Dropped-before.Dropped, served), int(served))
	total := basePhase.Attempted + driftPhase.Attempted
	ok := total - basePhase.Failed - driftPhase.Failed
	res.set("qps", float64(ok)/(basePhase.Elapsed+driftPhase.Elapsed).Seconds(), total)

	series, err := d.scrape(queryHistogramCount, "coradd_cache_hits_total")
	if err != nil {
		return nil, err
	}
	if got := int64(series[queryHistogramCount]); got != after.Served {
		return nil, fmt.Errorf("serve_drift: /metrics counted %d /query requests, /statusz served %d", got, after.Served)
	}
	res.check("/metrics /query histogram count == /statusz served == %d", after.Served)
	daemonCounters(res, after)
	res.layer("designer.daemon_cache_hits", series["coradd_cache_hits_total"], 1)
	keysBefore, err := d.designKeys()
	if err != nil {
		return nil, err
	}
	rss, err := d.peakRSSMB()
	if err != nil {
		return nil, err
	}
	res.set("rss_mb", rss, 1)

	// SIGKILL, restart on the same checkpoint, and wait until every
	// drifted template has been answered once: ready + cold re-pricing.
	d.kill()
	d, _, err = startDaemon(cfg.daemonBin, filepath.Join(cfg.tmpDir, "drift.log"), env, args(setupReps-1)...)
	if err != nil {
		return nil, err
	}
	var ready struct {
		Resumed bool `json:"resumed"`
	}
	if err := d.getJSON("/readyz", &ready); err != nil {
		return nil, err
	}
	if !ready.Resumed {
		return nil, d.fail("restart on %s did not resume", ckpt(setupReps-1))
	}
	one := newClients(1, d.url)[0]
	defer one.close()
	recoverFailed := 0
	for _, doc := range drift {
		if !one.post(doc) {
			recoverFailed++
		}
	}
	res.set("recover_s", sec(time.Since(d.started)), 1)
	keysAfter, err := d.designKeys()
	if err != nil {
		return nil, err
	}
	if fmt.Sprint(keysBefore) != fmt.Sprint(keysAfter) {
		return nil, fmt.Errorf("serve_drift: /design keys after SIGKILL + resume differ:\nbefore %v\nafter  %v", keysBefore, keysAfter)
	}
	res.check("/design keys after SIGKILL + resume equal the %d before", len(keysBefore))

	res.Attempted = total + len(drift)
	res.Failed = total - ok + recoverFailed
	res.set("fail_ratio", ratio(int64(res.Failed), int64(res.Attempted)), res.Attempted)
	if res.Failed > 0 {
		return nil, fmt.Errorf("serve_drift: %d of %d requests failed", res.Failed, res.Attempted)
	}
	res.check("all %d requests answered 200", res.Attempted)
	return res, nil
}
