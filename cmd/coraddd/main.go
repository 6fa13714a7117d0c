// Command coraddd is the durable CORADD serving daemon: a long-running
// HTTP process that executes workload queries against the currently
// deployed design while the adaptive controller (internal/adapt) watches
// the observed stream for drift and migrates the design underneath —
// queries never block on a solve or a build.
//
// Usage:
//
//	coraddd [-addr :8372] [-checkpoint path] [-rows n] [-budget mult]
//	        [-rate qps] [-burst n] [-req-timeout d] [-drain d]
//	        [-halflife s] [-checkevery n] [-crash-after-builds 1,3]
//	        [-pprof]
//
// Endpoints:
//
//	POST /query    execute a query: a JSON query document, or
//	               {"name":"Q2.1"} referencing the SSB catalog
//	GET  /design   the currently serving design (objects by structural key)
//	GET  /explain  plan attribution for one catalog template
//	               (?template=Q2.1): the design object and access path
//	               serving it, rows scanned vs returned, and the cost
//	               model's estimate against the measured seconds
//	GET  /statusz  controller and serving counters, the tail of the
//	               structured event trace (drift checks, solves, builds),
//	               the top objects by measured benefit and the worst-
//	               calibrated templates
//	GET  /metrics  Prometheus text exposition: per-route request-latency
//	               histograms, shed/timeout/panic counters, controller and
//	               solver telemetry (including per-object serve counters
//	               and the solve-gap gauge), ObjectCache stats
//	GET  /healthz  liveness (the process is up)
//	GET  /readyz   readiness (503 while starting, resuming or draining)
//	GET  /debug/pprof/  net/http/pprof, only with -pprof
//
// Observability: /metrics is always on (the registry costs atomic
// upticks); scrape it with any Prometheus-compatible collector — the
// shed/timeout/drop counters are monotonic, so rate() works across
// scrapes. pprof is opt-in via -pprof because profiling endpoints expose
// stacks and heap contents on the serving port.
//
// Durability: with -checkpoint, the daemon persists the controller's
// crash-state (active design, in-flight migration journal, monitor
// snapshot) through internal/durable on every structural change —
// write-temp-fsync-rename plus a checksum, so a kill at any instant
// leaves a loadable file. A restarted daemon finding the file resumes
// the interrupted migration from the journaled prefix and reports
// resumed=true on /readyz; a corrupt or version-incompatible file stops
// the daemon loudly (exit 2) instead of silently restarting cold.
//
// Degradation: requests beyond -rate queries/second are shed with 503 +
// Retry-After (admitted requests keep bounded latency); handlers past
// -req-timeout return 504; handler panics become 500s. SIGTERM drains
// in-flight queries under the -drain deadline, writes a final
// checkpoint, and exits 0.
//
// -crash-after-builds injects deterministic kills: after the k-th
// migration build completes and journals, the daemon checkpoints and
// exits with code 3 — the hook the restart property tests (and
// examples/serve_loop) drive.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"coradd/internal/adapt"
	"coradd/internal/designer"
	"coradd/internal/durable"
	"coradd/internal/fault"
	"coradd/internal/feedback"
	"coradd/internal/obs"
	"coradd/internal/scenario"
	"coradd/internal/server"
	"coradd/internal/workload"
)

func main() {
	addr := flag.String("addr", ":8372", "listen address")
	checkpoint := flag.String("checkpoint", "", "checkpoint file path (empty = no durability)")
	rows := flag.Int("rows", 20_000, "SSB fact rows to generate")
	budget := flag.Float64("budget", 2, "space budget as a multiple of the fact heap")
	rate := flag.Float64("rate", 0, "admission rate for /query in requests/second (0 = unlimited)")
	burst := flag.Float64("burst", 16, "admission token bucket depth")
	reqTimeout := flag.Duration("req-timeout", 5*time.Second, "per-request handler deadline (0 = none)")
	drain := flag.Duration("drain", 10*time.Second, "graceful shutdown drain deadline")
	halfLife := flag.Float64("halflife", 1e9, "monitor EWMA half-life in simulated seconds")
	checkEvery := flag.Int("checkevery", 13, "drift-check cadence in observations")
	minObserved := flag.Int("minobserved", 13, "observations before drift detection engages")
	crashAfter := flag.String("crash-after-builds", "", "comma-separated completed-build ordinals to crash after (testing hook)")
	pprofOn := flag.Bool("pprof", false, "mount net/http/pprof under /debug/pprof/ (exposes stacks and heap contents)")
	flag.Usage = func() {
		fmt.Fprintf(flag.CommandLine.Output(),
			"coraddd: durable CORADD serving daemon\n\nFlags:\n")
		flag.PrintDefaults()
		fmt.Fprintf(flag.CommandLine.Output(),
			"\nSee examples/serve_loop for a load generator that kills the daemon\nmid-migration and verifies the resumed design matches.\n")
	}
	flag.Parse()

	logger := log.New(os.Stderr, "coraddd ", log.LstdFlags|log.Lmsgprefix)
	if _, err := scenario.SolverMaxNodes(); err != nil {
		logger.Fatal(err)
	}

	var inj *fault.Injector
	if *crashAfter != "" {
		ordinals, err := parseOrdinals(*crashAfter)
		if err != nil {
			logger.Fatalf("-crash-after-builds: %v", err)
		}
		inj = fault.New(fault.Config{CrashAfterBuilds: ordinals})
	}

	scale := scenario.QuickScale()
	scale.SSBRows = *rows

	srv := server.NewStarting(server.Config{
		CheckpointPath: *checkpoint,
		RateLimit:      *rate,
		Burst:          *burst,
		RequestTimeout: *reqTimeout,
		Log:            logger,
		Metrics:        obs.NewRegistry(),
		Trace:          obs.NewTracer(obs.DefaultTraceEvents),
		Pprof:          *pprofOn,
		Adapt: adapt.Config{
			Cand: scale.Cand,
			FB:   feedback.Config{MaxIters: 1},
			Monitor: workload.Config{
				HalfLife:      *halfLife,
				MinObserved:   *minObserved,
				DistThreshold: 0.2,
			},
			CheckEvery: *checkEvery,
			Faults:     inj,
		},
	})

	// The daemon exits on an injected crash only after the loop has
	// written the crash checkpoint — a deterministic "kill at build
	// ordinal k" without SIGKILL timing races.
	httpSrv := &http.Server{Handler: srv.Handler()}
	// No httpSrv.Close() first: closing would race exit — Serve returns
	// ErrServerClosed into main's fatal path before os.Exit(3) runs, and
	// the process would report exit 1 instead of the crash code.
	srv.SetOnCrash(func(err error) {
		logger.Printf("crash injected: %v — exiting 3", err)
		os.Exit(3)
	})

	// Listen before the heavy boot: probes answer immediately (liveness
	// 200, readiness 503 "starting") while data generation and the
	// initial solve run.
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		logger.Fatalf("listen %s: %v", *addr, err)
	}
	logger.Printf("listening on %s", ln.Addr())
	serveErr := make(chan error, 1)
	go func() { serveErr <- httpSrv.Serve(ln) }()

	if err := boot(srv, scale, *budget, *checkpoint, logger); err != nil {
		logger.Printf("boot: %v", err)
		httpSrv.Close()
		if errors.Is(err, durable.ErrCorrupt) || errors.Is(err, durable.ErrVersion) {
			os.Exit(2)
		}
		os.Exit(1)
	}
	logger.Printf("serving (checkpoint=%q)", *checkpoint)

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGTERM, syscall.SIGINT)
	select {
	case s := <-sig:
		logger.Printf("%v: draining (deadline %s)", s, *drain)
	case err := <-serveErr:
		logger.Fatalf("http server: %v", err)
	}

	ctx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	if err := httpSrv.Shutdown(ctx); err != nil {
		logger.Printf("http shutdown: %v", err)
	}
	if err := srv.Shutdown(ctx); err != nil {
		logger.Printf("drain: %v", err)
		os.Exit(1)
	}
	logger.Printf("drained; final checkpoint written")
}

// boot generates the environment, then either resumes from a checkpoint
// or solves the initial design cold, and starts the controller loop.
func boot(srv *server.Server, scale scenario.Scale, budgetMult float64, ckptPath string, logger *log.Logger) error {
	start := time.Now()
	env := scenario.SSB(scale, false)
	logger.Printf("generated SSB (%d rows, %d catalog queries) in %s",
		scale.SSBRows, len(env.W), time.Since(start).Round(time.Millisecond))
	budget := int64(budgetMult * float64(env.Rel.HeapBytes()))
	srv.SetAdaptBudget(budget)

	if ckptPath != "" {
		cp, err := durable.Load(ckptPath)
		switch {
		case err == nil:
			if err := srv.AttachResumed(env.Common, cp); err != nil {
				return fmt.Errorf("resuming from %s: %w", ckptPath, err)
			}
			st := srv.Status()
			logger.Printf("resumed from %s: design %s, migrating=%v",
				ckptPath, st.Design, st.Migrating)
			return srv.Start()
		case errors.Is(err, os.ErrNotExist):
			logger.Printf("no checkpoint at %s: cold start", ckptPath)
		default:
			// Corrupt or version-incompatible: stop loudly. Guessing here
			// would silently discard a resumable migration.
			return err
		}
	}

	initial, err := initialDesign(env, scale, budget)
	if err != nil {
		return fmt.Errorf("initial design: %w", err)
	}
	logger.Printf("initial design %s (%d objects, %d bytes, %d solver nodes, proven=%v) in %s",
		initial.Name, len(initial.Chosen), initial.Size, initial.SolverNodes, initial.SolverProven,
		time.Since(start).Round(time.Millisecond))

	ctl, err := adapt.New(env.Common, initial, srv.AdaptConfig())
	if err != nil {
		return err
	}
	srv.Attach(env.Common, ctl)
	return srv.Start()
}

// initialDesign solves the cold-start design: the §4 candidate pool over
// the catalog queries and one feedback round, at budget.
func initialDesign(env *scenario.Env, scale scenario.Scale, budget int64) (*designer.Design, error) {
	return designer.NewCORADD(env.Common, scale.Cand, feedback.Config{MaxIters: 1}).Design(budget)
}

// parseOrdinals parses a comma-separated list of positive build ordinals.
func parseOrdinals(s string) ([]int, error) {
	var out []int
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		k, err := strconv.Atoi(part)
		if err != nil || k <= 0 {
			return nil, fmt.Errorf("%q is not a positive build ordinal", part)
		}
		out = append(out, k)
	}
	if len(out) == 0 {
		return nil, errors.New("no ordinals given")
	}
	return out, nil
}
