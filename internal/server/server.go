// Package server is the durable serving layer over the adaptive loop:
// an HTTP daemon core that executes queries concurrently against a
// read-mostly snapshot of the deployed design while a single controller
// goroutine runs the observe → drift → redesign → migrate timeline, and
// that persists the controller's restart state (adapt.State, framed by
// internal/durable) so a killed process resumes its migration instead of
// restarting cold.
//
// Concurrency contract: adapt.Controller is single-timeline, so exactly
// one goroutine (the loop started by Start) ever touches it; the one solve
// it may have in flight runs on a worker goroutine. Query handlers read
// an atomic design snapshot — swapped only when a migration step lands —
// and price queries through the shared, mutex-guarded ObjectCache; they
// never block on a build or a solve. Executed queries are handed to the
// controller through a bounded channel: enqueue never blocks serving
// (overflow increments a drop counter instead), so an overloaded
// controller degrades observation coverage, not query latency.
package server

import (
	"context"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"html"
	"log"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"coradd/internal/adapt"
	"coradd/internal/designer"
	"coradd/internal/durable"
	"coradd/internal/exec"
	"coradd/internal/fault"
	"coradd/internal/obs"
	"coradd/internal/query"
	"coradd/internal/workload"
)

// Config tunes a Server.
type Config struct {
	// Common supplies the designer inputs (statistics, disk, solve
	// options); its W is the catalog workload clients may reference by
	// query name. Normally left zero at NewStarting and supplied via
	// Attach once data generation finishes.
	Common designer.Common
	// Adapt tunes the adaptive controller.
	Adapt adapt.Config
	// CheckpointPath is where crash-state is persisted (internal/durable).
	// Empty disables durability: a killed daemon restarts cold.
	CheckpointPath string
	// CheckpointEvery bounds how many observations may pass between
	// checkpoints when nothing structural happens (monitor EWMA state
	// still moves). Structural changes — a build landing, a migration
	// starting or finishing — always checkpoint immediately. Default 64.
	CheckpointEvery int
	// RateLimit is the admission rate in requests/second for /query;
	// Burst the token bucket depth. RateLimit 0 disables shedding.
	RateLimit float64
	Burst     float64
	// RequestTimeout bounds each /query handler; expiry returns 504.
	// Zero disables the timeout.
	RequestTimeout time.Duration
	// ObsQueue is the observation channel capacity. Default 1024.
	ObsQueue int
	// Log receives request and controller logs; nil discards them.
	Log *log.Logger
	// OnCrash is invoked from the controller goroutine when the controller
	// surfaces fault.ErrCrash (deterministic kill-at-build-ordinal), after
	// the final checkpoint is written. The daemon exits the process here;
	// tests observe the call. nil just logs.
	OnCrash func(error)
	// Now is the clock used by the admission bucket; nil means time.Now.
	Now func() time.Time
	// Metrics, when non-nil, exports request latency histograms, the
	// server's lifetime counters, ObjectCache stats and (via Adapt) the
	// controller's metrics, and serves the registry at /metrics in
	// Prometheus text format. nil is free: nil handles, no-op updates,
	// no /metrics route.
	Metrics *obs.Registry
	// Trace, when non-nil, receives the controller's structured events;
	// the most recent ones are rendered in /statusz.
	Trace *obs.Tracer
	// Pprof mounts net/http/pprof under /debug/pprof/ — off by default:
	// profiling endpoints expose stacks and heap contents, so they are
	// opt-in (the daemon's -pprof flag).
	Pprof bool
}

func (c *Config) fill() {
	if c.CheckpointEvery <= 0 {
		c.CheckpointEvery = 64
	}
	if c.ObsQueue <= 0 {
		c.ObsQueue = 1024
	}
	if c.Burst <= 0 {
		c.Burst = 1
	}
	// The serving path and the controller must price through one shared
	// (mutex-guarded) materialization cache, or every template would be
	// measured twice per design.
	if c.Adapt.Cache == nil {
		c.Adapt.Cache = designer.NewObjectCache()
	}
	// The controller inherits the server's registry and tracer (unless
	// the caller wired its own), so one /metrics scrape covers both
	// layers and /statusz can render the controller's trace.
	if c.Adapt.Metrics == nil {
		c.Adapt.Metrics = c.Metrics
	}
	if c.Adapt.Trace == nil {
		c.Adapt.Trace = c.Trace
	}
}

// snapshot is the immutable serving state the query path reads: the
// physically deployed design and a per-snapshot rate cache. A new
// snapshot is published (atomically) whenever the deployed design
// changes; in-flight queries finish against the snapshot they started
// with, which is exactly the semantics of a migration step landing under
// traffic.
type snapshot struct {
	design *designer.Design
	// rates memoizes template fingerprint → ratedTemplate on design.
	rates sync.Map
}

// ratedTemplate is one memoized pricing: the measured seconds the query
// path charges, plus the attribution trace /explain renders.
type ratedTemplate struct {
	sec   float64
	trace exec.PlanTrace
}

// Status is the daemon's observable state (/statusz).
type Status struct {
	// Ready reports serving readiness; State names the lifecycle phase
	// (starting, resuming, serving, draining).
	Ready bool   `json:"ready"`
	State string `json:"state"`
	// Resumed reports whether this process restarted from a checkpoint.
	Resumed bool `json:"resumed"`
	// Served counts queries executed; Observed queries the controller has
	// consumed (Served − Observed − Dropped are still queued); Dropped
	// observations lost to a full queue; Shed requests refused with 503;
	// Timeouts requests cut with 504; Panics recovered handler panics.
	//
	// All six are process-lifetime monotonic counters: they only ever
	// increase while the process lives, are never reset by drain,
	// migration, resume or any other runtime event, and return to zero
	// only when the process restarts. /metrics exports the same atomics
	// as Prometheus counters (coradd_server_*_total), so rate() and
	// increase() work across scrapes and treat a restart as an ordinary
	// counter reset.
	Served   int64 `json:"served"`
	Observed int64 `json:"observed"`
	Dropped  int64 `json:"dropped"`
	Shed     int64 `json:"shed"`
	Timeouts int64 `json:"timeouts"`
	Panics   int64 `json:"panics"`
	// Clock is the controller's simulated time; Design the target design;
	// Deployed what physically serves; Migrating whether builds are in
	// flight; Solving whether a solve runs; BuildsDone / Redesigns /
	// Replans the controller counters.
	Clock     float64 `json:"clock"`
	Design    string  `json:"design"`
	Deployed  string  `json:"deployed"`
	Migrating bool    `json:"migrating"`
	Solving   bool    `json:"solving"`
	// Builds is the completed build sequence of the current/latest
	// migration, in deployment order (object names) — the restart property
	// tests compare this across kill/resume.
	Builds     []string `json:"builds,omitempty"`
	BuildsDone int      `json:"builds_done"`
	Redesigns  int      `json:"redesigns"`
	Replans    int      `json:"replans"`
	Checkpoint string   `json:"checkpoint,omitempty"`
	// Trace is the tail of the structured event trace (Config.Trace),
	// one rendered key=value line per event, oldest first (HTML-escaped —
	// event details can embed client-supplied query names).
	Trace []string `json:"trace,omitempty"`
	// TopObjects are the deployed objects ranked by accumulated measured
	// benefit (seconds saved against the base estimate over their serves);
	// WorstCalibrated the templates ranked by absolute modeled-vs-measured
	// error. Both are rendered lines, capped at statuszTopK, built from
	// the controller's calibration report.
	TopObjects      []string `json:"top_objects,omitempty"`
	WorstCalibrated []string `json:"worst_calibrated,omitempty"`
}

// Server is the daemon core: handlers, middleware and the controller
// goroutine. Build one with NewStarting (probes answer immediately),
// then Attach/AttachResumed once the heavy inputs exist, then Start.
type Server struct {
	cfg Config
	mux *http.ServeMux

	ready    atomic.Bool
	state    atomic.Value // string: starting | resuming | serving | draining
	resumed  atomic.Bool
	snap     atomic.Pointer[snapshot]
	view     atomic.Pointer[Status]
	bucket   *tokenBucket
	inflight sync.WaitGroup

	served   atomic.Int64
	shed     atomic.Int64
	timeouts atomic.Int64
	panics   atomic.Int64
	dropped  atomic.Int64
	observed atomic.Int64

	// obs feeds executed queries to the controller goroutine. obsMu +
	// obsClosed guard against a stray timed-out handler goroutine sending
	// after drain closed the channel.
	obs       chan *query.Query
	obsMu     sync.RWMutex
	obsClosed bool

	// ctl is the controller; its cost model also prices the serving path,
	// so the process holds one model for its whole life.
	ctl        *adapt.Controller
	catalog    map[string]*query.Query
	loopDone   chan struct{}
	sinceCkpt  int
	lastDeploy *designer.Design
	lastMig    bool

	// names binds each query name served so far to its template
	// fingerprint (the catalog's at Attach, a document's on first use).
	names sync.Map

	// metrics holds the per-request handles (metrics.go); all nil — and
	// all updates no-ops — when Config.Metrics is unset.
	metrics srvObs
}

// NewStarting builds a server that can answer /healthz and /readyz
// immediately — liveness 200, readiness 503 "starting" — while the
// caller generates data, statistics and the initial design. Attach the
// controller later; queries are refused (503) until Start.
func NewStarting(cfg Config) *Server {
	cfg.fill()
	s := &Server{
		cfg:      cfg,
		mux:      http.NewServeMux(),
		obs:      make(chan *query.Query, cfg.ObsQueue),
		loopDone: make(chan struct{}),
		bucket:   newTokenBucket(cfg.RateLimit, cfg.Burst, cfg.Now),
	}
	s.state.Store("starting")
	s.initObs()
	s.routes()
	return s
}

// Attach wires the designer inputs and a freshly built controller (cold
// start). common.W is the catalog workload clients may reference by
// name. Call before Start, from the starting goroutine — a server built
// with NewStarting typically exists (answering probes) long before the
// data generation producing common finishes.
func (s *Server) Attach(common designer.Common, ctl *adapt.Controller) {
	s.attach(common, ctl, false)
}

// AttachResumed restores the controller from a loaded checkpoint — its
// body decoded as an adapt.State and rebuilt by adapt.Restore under
// AdaptConfig — and wires it: readiness reports the resume and /statusz
// carries Resumed=true for the restart property tests. A body that is not
// a restorable state fails with durable.ErrCorrupt.
func (s *Server) AttachResumed(common designer.Common, cp *durable.Checkpoint) error {
	var st adapt.State
	if err := cp.Decode(&st); err != nil {
		return err
	}
	ctl, err := adapt.Restore(common, st, s.cfg.Adapt)
	if err != nil {
		return err
	}
	s.attach(common, ctl, true)
	return nil
}

func (s *Server) attach(common designer.Common, ctl *adapt.Controller, resumed bool) {
	s.cfg.Common = common
	s.ctl = ctl
	s.resumed.Store(resumed)
	if resumed {
		s.state.Store("resuming")
	}
	s.catalog = make(map[string]*query.Query, len(s.cfg.Common.W))
	for _, q := range s.cfg.Common.W {
		s.catalog[q.Name] = q
		s.names.Store(q.Name, workload.Fingerprint(q))
	}
	s.lastDeploy = ctl.Deployed()
	s.lastMig = ctl.Migrating()
	s.publishSnapshot(ctl.Deployed())
	s.publishView()
}

// Start marks the server ready and launches the controller goroutine.
func (s *Server) Start() error {
	if s.ctl == nil {
		return errors.New("server: Start before Attach")
	}
	// A resumed controller checkpoints immediately: the on-disk state must
	// reflect the resume before any new observation, or a crash in the
	// first post-restart window would replay against the pre-crash file.
	if err := s.checkpoint(); err != nil {
		return err
	}
	s.state.Store("serving")
	s.ready.Store(true)
	s.publishView()
	go s.loop()
	return nil
}

// Handler returns the fully wired HTTP handler.
func (s *Server) Handler() http.Handler { return s.mux }

// AdaptConfig returns the controller configuration with the server's
// shared ObjectCache filled in — build the controller from this so the
// serving path and the controller price through one cache.
func (s *Server) AdaptConfig() adapt.Config { return s.cfg.Adapt }

// SetAdaptBudget fixes the redesign space budget, which a staged boot
// only knows once the fact relation exists (budgets are multiples of the
// heap size). Call before building the controller from AdaptConfig.
func (s *Server) SetAdaptBudget(b int64) { s.cfg.Adapt.Budget = b }

// SetOnCrash installs the injected-crash hook after construction — the
// daemon's hook closes over the http.Server, which is built around this
// Server's handler. Call before Start.
func (s *Server) SetOnCrash(fn func(error)) { s.cfg.OnCrash = fn }

// Ready reports serving readiness (the /readyz condition).
func (s *Server) Ready() bool { return s.ready.Load() }

// Status returns the current observable state.
func (s *Server) Status() Status {
	// Counters move between view publications: read them live, and before
	// the view, which the loop publishes before counting its observation.
	served, observed, dropped := s.served.Load(), s.observed.Load(), s.dropped.Load()
	var st Status
	if v := s.view.Load(); v != nil {
		st = *v
		st.Builds = append([]string(nil), v.Builds...)
		st.TopObjects = append([]string(nil), v.TopObjects...)
		st.WorstCalibrated = append([]string(nil), v.WorstCalibrated...)
	}
	st.Served, st.Observed, st.Dropped = served, observed, dropped
	st.Shed, st.Timeouts, st.Panics = s.shed.Load(), s.timeouts.Load(), s.panics.Load()
	st.Ready, st.State, st.Trace = s.ready.Load(), s.state.Load().(string), s.recentTrace()
	return st
}

// Shutdown drains gracefully: readiness flips off (load balancers stop
// sending), in-flight handlers finish under ctx's deadline, the
// observation queue is closed and drained by the controller goroutine,
// and a final checkpoint is written. The caller shuts the http.Server
// down first so no new requests arrive mid-drain.
func (s *Server) Shutdown(ctx context.Context) error {
	// Readiness and state are read live (handlers, Status); the view is
	// never republished here — the controller goroutine may still be
	// draining, and only it may read ctl. The loop publishes the final
	// view itself after the queue closes.
	s.ready.Store(false)
	s.state.Store("draining")

	done := make(chan struct{})
	go func() {
		s.inflight.Wait()
		close(done)
	}()
	var drainErr error
	select {
	case <-done:
	case <-ctx.Done():
		drainErr = fmt.Errorf("server: drain deadline exceeded with requests in flight: %w", ctx.Err())
	}

	s.obsMu.Lock()
	if !s.obsClosed {
		s.obsClosed = true
		close(s.obs)
	}
	s.obsMu.Unlock()

	if s.ctl != nil {
		select {
		case <-s.loopDone:
		case <-ctx.Done():
			if drainErr == nil {
				drainErr = fmt.Errorf("server: controller drain deadline exceeded: %w", ctx.Err())
			}
		}
	}
	return drainErr
}

// observe hands an executed query to the controller goroutine without
// ever blocking the serving path: a full queue drops the observation
// (counted), a drained server drops it silently.
func (s *Server) observe(q *query.Query) {
	s.obsMu.RLock()
	defer s.obsMu.RUnlock()
	if s.obsClosed {
		return
	}
	select {
	case s.obs <- q:
	default:
		s.dropped.Add(1)
	}
}

// loop is the controller goroutine: the only code that touches ctl. It
// consumes observations, advances the adaptive timeline, swaps the
// serving snapshot when a migration step lands, and checkpoints on
// structural change (and every CheckpointEvery steps). A solve it issues
// runs on a worker goroutine while the loop keeps consuming observations
// and lands the result; a drain also lands the solve in flight.
//
// Crash contract: on an injected crash the server stops serving first,
// then writes the final checkpoint — journal intact, the just-completed
// build journaled — and publishes nothing: no view, no snapshot, no
// observed count. Whatever the crashing call changed is visible only
// through the checkpoint, so a client polling the dying process can never
// observe a state (a build, a finished migration) that a restart from
// that checkpoint does not also carry. Control then passes to OnCrash.
func (s *Server) loop() {
	defer close(s.loopDone)
	in, landed, solving := s.obs, make(chan *adapt.Solve, 1), false
	for in != nil || solving {
		var sv *adapt.Solve
		var err error
		q, ok := (*query.Query)(nil), false
		select {
		case q, ok = <-in:
			if !ok {
				in = nil
				continue
			}
			_, sv, err = s.ctl.Observe(q)
		case sv = <-landed:
			sv, err = s.ctl.Land(sv)
		}
		if errors.Is(err, fault.ErrCrash) {
			// The controller is dead: returning stops the loop, so queued
			// observations cannot advance past the crash point or
			// overwrite the crash checkpoint. The daemon's OnCrash exits
			// the process; in-process harnesses observe the call and
			// restart from the checkpoint, exactly like a new process.
			s.ready.Store(false)
			s.state.Store("crashed")
			if cerr := s.checkpoint(); cerr != nil {
				s.logf("checkpoint at crash: %v", cerr)
			}
			s.logf("injected crash: %v", err)
			if s.cfg.OnCrash != nil {
				s.cfg.OnCrash(err)
			}
			return
		}
		if err != nil {
			s.logf("controller: %v", err)
		}
		s.publishAfterProcess()
		if solving = sv != nil; solving {
			go func() { sv.Run(); landed <- sv }()
		}
		// The observed counter increments only after the view and snapshot
		// publish: a client that polls until its observation is consumed
		// must then read the post-observation state, not a stale view.
		if q != nil {
			s.observed.Add(1)
		}
	}
	s.publishView()
	if err := s.checkpoint(); err != nil {
		s.logf("final checkpoint: %v", err)
	}
}

// publishAfterProcess swaps the snapshot on deployment change, refreshes
// the status view, and checkpoints when something structural happened.
func (s *Server) publishAfterProcess() {
	structural := false
	if d := s.ctl.Deployed(); d != s.lastDeploy {
		s.lastDeploy = d
		s.publishSnapshot(d)
		structural = true
	}
	if m := s.ctl.Migrating(); m != s.lastMig {
		s.lastMig = m
		structural = true
	}
	s.publishView()
	s.sinceCkpt++
	if structural || s.sinceCkpt >= s.cfg.CheckpointEvery {
		if err := s.checkpoint(); err != nil {
			s.logf("checkpoint: %v", err)
		}
	}
}

// publishSnapshot installs a fresh serving snapshot for design d.
func (s *Server) publishSnapshot(d *designer.Design) {
	s.snap.Store(&snapshot{design: d})
}

// publishView refreshes the /statusz view from the controller. Called
// only from the controller goroutine (or before Start).
func (s *Server) publishView() {
	v := &Status{
		Resumed:    s.resumed.Load(),
		Checkpoint: s.cfg.CheckpointPath,
	}
	if s.ctl != nil {
		v.Clock = s.ctl.Clock()
		v.Design = s.ctl.Incumbent().Name
		v.Deployed = s.ctl.Deployed().Name
		v.Migrating = s.ctl.Migrating()
		v.Solving = s.ctl.Solving()
		if j := s.ctl.Journal(); j != nil {
			for _, bi := range j.Done {
				// Hex, like /design's keys: the structural key is binary and
				// json.Marshal would corrupt it to U+FFFD, collapsing
				// distinct builds into identical strings.
				v.Builds = append(v.Builds, hex.EncodeToString([]byte(j.Builds[bi])))
			}
			v.BuildsDone = len(j.Done)
		}
		rep := s.ctl.Report()
		v.Redesigns = rep.Redesigns
		v.Replans = rep.Replans
		cal := s.ctl.Calibration(adapt.DefaultCalibrationThreshold)
		for i, o := range cal.Objects {
			if i == statuszTopK {
				break
			}
			v.TopObjects = append(v.TopObjects, fmt.Sprintf(
				"%s serves=%d measured_benefit=%.4fs", o.Object, o.Serves, o.MeasuredBenefit))
		}
		for i, t := range cal.Templates {
			if i == statuszTopK {
				break
			}
			v.WorstCalibrated = append(v.WorstCalibrated, html.EscapeString(fmt.Sprintf(
				"%s via %s err=%+.1f%% serves=%d", t.Query, t.Object, t.Error()*100, t.Serves)))
		}
	}
	s.view.Store(v)
}

// checkpoint persists the controller's crash-state. A no-op without a
// configured path. Called only from the controller goroutine (or before
// Start, when no other goroutine can touch the controller yet).
func (s *Server) checkpoint() error {
	if s.cfg.CheckpointPath == "" || s.ctl == nil {
		return nil
	}
	cp, err := durable.Capture(s.ctl)
	if err != nil {
		return err
	}
	s.sinceCkpt = 0
	return durable.Save(s.cfg.CheckpointPath, cp)
}

// price resolves q's rated template on snapshot sn: a cache hit is the
// memoized pricing, a miss measures through the shared ObjectCache
// (designer.MeasureTemplateTraced, the controller's own measurement
// procedure) and memoizes seconds and attribution trace together. Pure
// pricing — no serve counting, so /explain can use it too.
func (s *Server) price(sn *snapshot, q *query.Query) (ratedTemplate, bool, error) {
	key := workload.Fingerprint(q)
	if v, ok := sn.rates.Load(key); ok {
		return v.(ratedTemplate), true, nil
	}
	sec, tr, err := designer.MeasureTemplateTraced(s.cfg.Common.St, s.cfg.Common.Disk,
		s.cfg.Adapt.Cache, s.ctl.Model(), sn.design, q)
	if err != nil {
		return ratedTemplate{}, false, err
	}
	rt := ratedTemplate{sec: sec, trace: tr}
	sn.rates.Store(key, rt)
	return rt, false, nil
}

// execute prices q against the current serving snapshot and counts the
// serve. Never blocks on the controller.
func (s *Server) execute(q *query.Query) (sec float64, design string, cached bool, err error) {
	sn := s.snap.Load()
	if sn == nil {
		return 0, "", false, errors.New("server: no design attached")
	}
	rt, cached, err := s.price(sn, q)
	if err != nil {
		return 0, sn.design.Name, false, err
	}
	s.served.Add(1)
	s.observe(q)
	return rt.sec, sn.design.Name, cached, nil
}

// resolve turns a request body into an executable query: a full query
// document, or a catalog reference by name.
func (s *Server) resolve(body []byte) (*query.Query, error) {
	var q query.Query
	if err := json.Unmarshal(body, &q); err != nil {
		return nil, fmt.Errorf("body is not a query document: %v", err)
	}
	if q.Name != "" && len(q.Predicates) == 0 && len(q.Targets) == 0 {
		cq, ok := s.catalog[q.Name]
		if !ok {
			return nil, fmt.Errorf("unknown catalog query %q", q.Name)
		}
		resolved := *cq
		if q.Weight > 0 {
			resolved.Weight = q.Weight
		}
		return &resolved, nil
	}
	// Canonicalize IN sets (sorted, deduplicated) and equalities (Hi = Lo)
	// as query.NewIn and query.NewEq build them, then hold the document to
	// a catalog query's invariants.
	for i := range q.Predicates {
		switch p := &q.Predicates[i]; p.Op {
		case query.Eq:
			p.Hi = p.Lo
		case query.In:
			*p = query.NewIn(p.Col, p.Set...)
		}
	}
	if err := q.Validate(s.cfg.Common.St.Rel.Schema.Col); err != nil {
		return nil, err
	}
	// A name must keep meaning one template for the life of the process:
	// it keys the catalog and the calibration records, and /explain and
	// /statusz report templates by it.
	fp := workload.Fingerprint(&q)
	if bound, loaded := s.names.LoadOrStore(q.Name, fp); loaded && bound != fp {
		return nil, fmt.Errorf("query name %q already names a different template", q.Name)
	}
	return &q, nil
}

// statuszTraceEvents bounds how many trace events /statusz renders;
// statuszTopK how many calibration lines.
const (
	statuszTraceEvents = 32
	statuszTopK        = 5
)

// recentTrace renders the tail of the structured trace for /statusz,
// oldest first; nil without a configured tracer. Lines are HTML-escaped:
// event details can embed client-supplied query names, and a status page
// pasted into anything that renders HTML must not carry live markup.
func (s *Server) recentTrace() []string {
	if s.cfg.Trace == nil {
		return nil
	}
	evs := s.cfg.Trace.Recent(statuszTraceEvents)
	if len(evs) == 0 {
		return nil
	}
	out := make([]string, len(evs))
	for i, e := range evs {
		out[i] = html.EscapeString(e.String())
	}
	return out
}

func (s *Server) logf(format string, args ...any) {
	if s.cfg.Log != nil {
		s.cfg.Log.Printf(format, args...)
	}
}
