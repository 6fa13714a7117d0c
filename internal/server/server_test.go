package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"runtime"
	"sync"
	"testing"
	"time"

	"coradd/internal/adapt"
	"coradd/internal/candgen"
	"coradd/internal/designer"
	"coradd/internal/durable"
	"coradd/internal/feedback"
	"coradd/internal/obs"
	"coradd/internal/query"
	"coradd/internal/ssb"
	"coradd/internal/stats"
	"coradd/internal/storage"
	"coradd/internal/workload"
)

// The SSB environment and initial design are expensive (seconds); build
// them once and share across the integration tests. Everything mutable —
// controller, caches, server — is per-test.
var (
	envOnce    sync.Once
	envCommon  designer.Common
	envInitial *designer.Design
	envBudget  int64
)

func testEnv(t testing.TB) (designer.Common, *designer.Design, adapt.Config) {
	t.Helper()
	envOnce.Do(func() {
		rel := ssb.Generate(ssb.Config{Rows: 6000, Customers: 1000, Suppliers: 200, Parts: 800, Seed: 11})
		st := stats.New(rel, 1024, 5)
		cand := candgen.DefaultConfig()
		cand.Alphas = []float64{0, 0.25}
		cand.Restarts = 2
		cand.MaxInterleavings = 16
		envCommon = designer.Common{
			St: st, W: ssb.Queries(), Disk: storage.DefaultDiskParams(),
			PKCols: ssb.PKCols(rel.Schema), BaseKey: rel.ClusterKey,
		}
		// At this scale the exact solver proves the same optima within
		// 200k nodes that an unbounded search proves in ~10M; the cap
		// yields an identical adaptive timeline ~5x faster, which keeps
		// the -race suite inside CI budgets.
		envCommon.Solve.MaxNodes = 200_000
		envBudget = rel.HeapBytes() * 2
		des := designer.NewCORADD(envCommon, cand, feedback.Config{MaxIters: 1})
		var err error
		envInitial, err = des.Design(envBudget)
		if err != nil {
			panic(err)
		}
	})
	cand := candgen.DefaultConfig()
	cand.Alphas = []float64{0, 0.25}
	cand.Restarts = 2
	cand.MaxInterleavings = 16
	cfg := adapt.Config{
		Budget: envBudget,
		Cand:   cand,
		FB:     feedback.Config{MaxIters: 1},
		Monitor: workload.Config{
			HalfLife:      1e9,
			MinObserved:   13,
			DistThreshold: 0.2,
		},
		CheckEvery:      13,
		ReplanTolerance: -1,
	}
	return envCommon, envInitial, cfg
}

// startServer assembles an attached, started server (cold or resumed).
func startServer(t *testing.T, cfg Config, cp *durable.Checkpoint) *Server {
	t.Helper()
	common, initial, acfg := testEnv(t)
	cfg.Adapt = acfg
	s := NewStarting(cfg)
	if cp != nil {
		if err := s.AttachResumed(common, cp); err != nil {
			t.Fatal(err)
		}
	} else {
		ctl, err := adapt.New(common, initial, s.AdaptConfig())
		if err != nil {
			t.Fatal(err)
		}
		s.Attach(common, ctl)
	}
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	return s
}

// postQuery executes one catalog query through the full middleware chain.
func postQuery(t *testing.T, h http.Handler, name string) (*httptest.ResponseRecorder, float64) {
	t.Helper()
	body, _ := json.Marshal(map[string]string{"name": name})
	rr := httptest.NewRecorder()
	h.ServeHTTP(rr, httptest.NewRequest("POST", "/query", bytes.NewReader(body)))
	var resp struct {
		Seconds float64 `json:"seconds"`
	}
	if rr.Code == http.StatusOK {
		if err := json.Unmarshal(rr.Body.Bytes(), &resp); err != nil {
			t.Fatalf("bad /query response: %v: %s", err, rr.Body.String())
		}
	}
	return rr, resp.Seconds
}

// waitObserved polls until the controller has consumed n observations
// and has no solve in flight — the serving path is asynchronous by
// design, so tests synchronize on the observed counter and the solve
// worker, not on request completion.
func waitObserved(t *testing.T, s *Server, n int64) {
	t.Helper()
	// Generous: a redesign's exact solves take tens of seconds under -race.
	deadline := time.Now().Add(5 * time.Minute)
	for time.Now().Before(deadline) {
		st := s.Status()
		if st.Observed+st.Dropped >= n && !st.Solving {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("controller consumed %d of %d observations before the deadline", s.Status().Observed, n)
}

func shutdown(t *testing.T, s *Server) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Minute)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
}

// stream returns the drifting workload: phase A base mix, phase B
// augmented mix — the same shape that drives internal/adapt's tests
// through a migration.
func stream(aEvents, bEvents int) []*query.Query {
	base := ssb.Queries()
	aug := ssb.AugmentedQueries()
	var out []*query.Query
	for i := 0; i < aEvents; i++ {
		out = append(out, base[i%len(base)])
	}
	for i := 0; i < bEvents; i++ {
		out = append(out, aug[i%len(aug)])
	}
	return out
}

// sendRaw posts a full query document (not a catalog reference).
func sendRaw(t *testing.T, h http.Handler, q *query.Query) *httptest.ResponseRecorder {
	t.Helper()
	body, err := json.Marshal(q)
	if err != nil {
		t.Fatal(err)
	}
	rr := httptest.NewRecorder()
	h.ServeHTTP(rr, httptest.NewRequest("POST", "/query", bytes.NewReader(body)))
	return rr
}

// TestServeLifecycle: ready after Start, queries execute, /design and
// /statusz answer, drain flips readiness off and drains the loop.
func TestServeLifecycle(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	s := startServer(t, Config{}, nil)
	h := s.Handler()

	rr := httptest.NewRecorder()
	h.ServeHTTP(rr, httptest.NewRequest("GET", "/readyz", nil))
	if rr.Code != http.StatusOK {
		t.Fatalf("readyz %d after Start", rr.Code)
	}
	rr, sec := postQuery(t, h, "Q2.1")
	if rr.Code != http.StatusOK || sec <= 0 {
		t.Fatalf("query: %d %s", rr.Code, rr.Body.String())
	}
	// The same template again must hit the snapshot rate cache.
	rr2, sec2 := postQuery(t, h, "Q2.1")
	if rr2.Code != http.StatusOK || sec2 != sec {
		t.Fatalf("repeat query diverged: %v vs %v", sec2, sec)
	}
	if !bytes.Contains(rr2.Body.Bytes(), []byte(`"cached":true`)) {
		t.Errorf("repeat of one template re-measured: %s", rr2.Body.String())
	}
	rr = httptest.NewRecorder()
	h.ServeHTTP(rr, httptest.NewRequest("GET", "/design", nil))
	if rr.Code != http.StatusOK || !bytes.Contains(rr.Body.Bytes(), []byte(`"objects"`)) {
		t.Fatalf("/design: %d %s", rr.Code, rr.Body.String())
	}
	waitObserved(t, s, 2)
	st := s.Status()
	if st.Served != 2 || st.Observed != 2 {
		t.Errorf("served=%d observed=%d, want 2/2", st.Served, st.Observed)
	}

	shutdown(t, s)
	rr = httptest.NewRecorder()
	h.ServeHTTP(rr, httptest.NewRequest("GET", "/readyz", nil))
	if rr.Code != http.StatusServiceUnavailable {
		t.Errorf("readyz %d after shutdown, want 503", rr.Code)
	}
	rr, _ = postQuery(t, h, "Q2.1")
	if rr.Code != http.StatusServiceUnavailable {
		t.Errorf("query %d after shutdown, want 503", rr.Code)
	}
}

// TestBadQueries: malformed bodies and unknown catalog names are 400s,
// never 500s or panics.
func TestBadQueries(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	s := startServer(t, Config{}, nil)
	defer shutdown(t, s)
	h := s.Handler()
	for name, body := range map[string]string{
		"not json":     "SELECT 1",
		"unknown name": `{"name":"Q9.9"}`,
		"empty":        `{}`,
	} {
		rr := httptest.NewRecorder()
		h.ServeHTTP(rr, httptest.NewRequest("POST", "/query", bytes.NewReader([]byte(body))))
		if rr.Code != http.StatusBadRequest {
			t.Errorf("%s: %d, want 400 (%s)", name, rr.Code, rr.Body.String())
		}
	}
	rr := httptest.NewRecorder()
	h.ServeHTTP(rr, httptest.NewRequest("GET", "/query", nil))
	if rr.Code != http.StatusMethodNotAllowed {
		t.Errorf("GET /query: %d, want 405", rr.Code)
	}
}

// TestConcurrentQueriesAcrossMigration is the snapshot-swap race test:
// many goroutines execute queries through the full chain while the
// controller redesigns and migrates underneath (swapping the serving
// snapshot on every build). Run under -race this validates the central
// concurrency claim; functionally it asserts queries never fail and the
// migration actually happened.
func TestConcurrentQueriesAcrossMigration(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	reg := obs.NewRegistry()
	s := startServer(t, Config{Metrics: reg}, nil)
	h := s.Handler()

	// Phase A sequentially: a stable baseline mix for drift detection.
	var sent int64
	for _, q := range stream(39, 0) {
		if rr := sendRaw(t, h, q); rr.Code != http.StatusOK {
			t.Fatalf("phase A query failed: %d %s", rr.Code, rr.Body.String())
		}
		sent++
	}
	waitObserved(t, s, sent)

	// Phase B from many goroutines, in rounds until a build has landed: the
	// mix shifts while queries race the controller's snapshot swaps. The
	// redesign solves on the worker while traffic keeps flowing, and builds
	// advance only as served queries move the simulated clock.
	phaseB := stream(0, 156)
	builds := reg.Counter("coradd_adapt_builds_total", "")
	for round := 0; round < 8 && builds.Value() == 0; round++ {
		const workers = 8
		errs := make(chan string, len(phaseB))
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for i := w; i < len(phaseB); i += workers {
					body, _ := json.Marshal(phaseB[i])
					rr := httptest.NewRecorder()
					h.ServeHTTP(rr, httptest.NewRequest("POST", "/query", bytes.NewReader(body)))
					if rr.Code != http.StatusOK {
						errs <- fmt.Sprintf("%d: %s", rr.Code, rr.Body.String())
					}
				}
			}(w)
		}
		wg.Wait()
		close(errs)
		for e := range errs {
			t.Fatalf("concurrent query failed: %s", e)
		}
		sent += int64(len(phaseB))
		waitObserved(t, s, sent)
	}
	shutdown(t, s)

	st := s.Status()
	if st.Redesigns == 0 {
		t.Error("the shifted mix never triggered a redesign through the serving path")
	}
	// The lifetime counter, not Status.BuildsDone: that one counts the
	// current migration's journal, which is legitimately empty when the
	// racing arrival order makes the controller redesign again near the
	// end of the stream.
	if builds.Value() == 0 {
		t.Error("no migration build landed — the snapshot swap path went unexercised")
	}
	if st.Panics != 0 {
		t.Errorf("%d handler panics", st.Panics)
	}
}

// TestCheckpointResumeAcrossServers: a server that migrated and drained
// leaves a checkpoint a second server resumes from with the identical
// design — the in-process shape of the daemon's restart story.
func TestCheckpointResumeAcrossServers(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	path := filepath.Join(t.TempDir(), "cp.json")
	s1 := startServer(t, Config{CheckpointPath: path}, nil)
	h := s1.Handler()
	// Lockstep: each observation, and every solve it issues, lands before
	// the next query, so the stream finishes its migration.
	var sent int64
	for _, q := range stream(39, 156) {
		if rr := sendRaw(t, h, q); rr.Code != http.StatusOK {
			t.Fatalf("query failed: %d %s", rr.Code, rr.Body.String())
		}
		sent++
		waitObserved(t, s1, sent)
	}
	shutdown(t, s1)
	st1 := s1.Status()

	cp, err := durable.Load(path)
	if err != nil {
		t.Fatalf("loading the drained server's checkpoint: %v", err)
	}
	s2 := startServer(t, Config{CheckpointPath: path}, cp)
	defer shutdown(t, s2)
	st2 := s2.Status()
	if !st2.Resumed {
		t.Error("resumed server does not report Resumed")
	}
	// Continuity is of the SERVING identity: an idle checkpoint records
	// the deployed design (prefix names like "CORADD+6"), and the resumed
	// server — idle by construction — serves it as its incumbent too.
	if st2.Deployed != st1.Deployed {
		t.Errorf("resumed deployed design %q, drained server had %q", st2.Deployed, st1.Deployed)
	}
	if st2.Design != st1.Deployed {
		t.Errorf("resumed incumbent %q, want the drained serving design %q", st2.Design, st1.Deployed)
	}
	if rr, _ := postQuery(t, s2.Handler(), "Q2.1"); rr.Code != http.StatusOK {
		t.Errorf("resumed server cannot serve: %d", rr.Code)
	}
}

// TestObservationDropsDoNotBlock: with a tiny observation queue and a
// stalled controller (pre-Start, loop not yet running), query serving
// keeps answering and counts drops instead of blocking.
func TestObservationDropsDoNotBlock(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	common, initial, acfg := testEnv(t)
	s := NewStarting(Config{ObsQueue: 2, Adapt: acfg})
	ctl, err := adapt.New(common, initial, s.AdaptConfig())
	if err != nil {
		t.Fatal(err)
	}
	s.Attach(common, ctl)
	// Ready without the loop: observations accumulate in the queue.
	s.ready.Store(true)
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 10; i++ {
			postQuery(t, s.Handler(), "Q2.1")
		}
	}()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("serving blocked on a full observation queue")
	}
	if d := s.dropped.Load(); d != 8 {
		t.Errorf("dropped %d observations, want 8 (queue of 2, 10 sends)", d)
	}
}

// TestNoGoroutineLeak: a full serve → drain cycle returns the process to
// its pre-server goroutine count (the controller loop and in-flight
// trackers all exit).
func TestNoGoroutineLeak(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	testEnv(t) // build the shared env outside the measurement window
	before := runtime.NumGoroutine()
	s := startServer(t, Config{RequestTimeout: time.Second}, nil)
	for _, q := range stream(13, 13) {
		sendRaw(t, s.Handler(), q)
	}
	shutdown(t, s)
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= before {
			return
		}
		runtime.Gosched()
		time.Sleep(10 * time.Millisecond)
	}
	t.Errorf("goroutines: %d before, %d after drain", before, runtime.NumGoroutine())
}
