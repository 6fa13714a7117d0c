// Serve loop: the adaptive redesign loop behind a real HTTP serving
// daemon, driven by a load generator — the in-process shape of
// cmd/coraddd. An SSB system is designed and served; a client hammers
// POST /query with the drifting base→augmented mix. Admission control
// sheds the excess load with 503 + Retry-After (the impatient client
// retries), the controller redesigns for the observed drift and
// migrates — and as the second build lands an injected crash kills the
// controller, exactly as if the process died. Because every structural
// change was checkpointed (write-temp-fsync-rename, checksummed), the
// "restart" loads the checkpoint, resumes from its journal (or, when the
// crash landed a migration's last build, idle on the deployed prefix),
// and finishes serving the remaining load on the same timeline.
//
// Run it:
//
//	go run ./examples/serve_loop
package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"time"

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

	dir, err := os.MkdirTemp("", "serve_loop")
	must(err)
	defer os.RemoveAll(dir)
	ckpt := filepath.Join(dir, "coraddd.checkpoint")

	// Life 1: serve with a crash scheduled after the second migration
	// build lands — the controller dies mid-migration, journal intact.
	// A metrics registry and event tracer ride along: the same load also
	// exercises /metrics and the /statusz trace tail.
	crashed := make(chan struct{})
	metrics := coradd.NewMetricsRegistry()
	scfg := serverConfig(budget, ckpt)
	scfg.Metrics = metrics
	scfg.Trace = coradd.NewEventTracer(0)
	scfg.Adapt.Faults = coradd.NewFaultInjector(coradd.FaultConfig{
		Seed: 42, CrashAfterBuilds: []int{2},
	})
	scfg.OnCrash = func(err error) {
		fmt.Printf("\n*** %v\n", err)
		close(crashed)
	}
	srv, err := sys.ServeAdaptive(initial, nil, scfg)
	must(err)
	httpSrv := httptest.NewServer(srv.Handler())

	// The same drifting stream as examples/adaptive_loop, sent over HTTP.
	base := coradd.SSBQueries()
	aug := coradd.SSBAugmentedQueries()
	var stream []*coradd.Query
	for r := 0; r < 6; r++ {
		stream = append(stream, base...)
	}
	for r := 0; r < 4; r++ {
		stream = append(stream, aug...)
	}
	fmt.Printf("load: %d requests against %s (mix shifts at request %d)\n\n",
		len(stream), httpSrv.URL, 6*len(base)+1)

	sent, shed := drive(httpSrv.URL, srv, stream, 0, crashed)
	st := srv.Status()
	fmt.Printf("life 1: %d served, %d shed with 503+Retry-After, %d observations dropped\n",
		st.Served, shed, st.Dropped)
	fmt.Printf("life 1: crashed migrating to %s\n", st.Design)
	printMetrics(httpSrv.URL)
	httpSrv.Close()

	// Life 2: a fresh "process" restarts from the checkpoint. The resumed
	// controller follows the journaled plan — no re-decision — and the
	// remaining load keeps flowing.
	cp, err := coradd.LoadCheckpoint(ckpt)
	must(err)
	srv2, err := sys.ServeAdaptive(nil, cp, serverConfig(budget, ckpt))
	must(err)
	httpSrv2 := httptest.NewServer(srv2.Handler())
	// The dying server published nothing about the step that killed it;
	// the checkpoint alone says how far the migration got.
	st2 := srv2.Status()
	if !st2.Resumed {
		panic("restart did not resume from the checkpoint")
	}
	fmt.Printf("\nlife 2: resumed from %s, migrating=%v with %d builds journaled: %v\n",
		ckpt, st2.Migrating, st2.BuildsDone, st2.Builds)

	_, shed2 := drive(httpSrv2.URL, srv2, stream, sent, nil)
	httpSrv2.Close()

	// Graceful drain: in-flight requests finish, the controller consumes
	// its queue, and a final checkpoint lands.
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	must(srv2.Shutdown(ctx))

	st2 = srv2.Status()
	fmt.Printf("life 2: %d served, %d shed, final design %s (deployed %s), %d builds this migration\n",
		st2.Served, shed2, st2.Design, st2.Deployed, st2.BuildsDone)
	fmt.Printf("\ntotal: %d redesigns, drained with a final checkpoint at %s\n", st2.Redesigns, ckpt)
	if _, err := coradd.LoadCheckpoint(ckpt); err != nil {
		panic(err)
	}
	fmt.Println("final checkpoint validates (format-tagged, checksummed)")
}

// serverConfig is one daemon configuration shared by both lives: modest
// admission rate so the generator actually sheds, per-request timeout,
// checkpointing on every structural change.
func serverConfig(budget int64, ckpt string) coradd.ServerConfig {
	return coradd.ServerConfig{
		CheckpointPath:  ckpt,
		CheckpointEvery: 32,
		RateLimit:       400, // requests/second; the generator is faster
		Burst:           40,
		RequestTimeout:  5 * time.Second,
		Adapt: coradd.AdaptiveConfig{
			Budget: budget,
			Monitor: coradd.MonitorConfig{
				HalfLife:      2,
				MinObserved:   26,
				DistThreshold: 0.25,
			},
			CheckEvery: 13,
		},
	}
}

// drive POSTs stream[from:] one request at a time, retrying shed (503)
// requests after a short backoff — an impatient client that ignores the
// server's 1-second Retry-After hint. After each answered request it
// waits until the controller has consumed it and has no solve in flight
// on its worker, so every run replays one simulated timeline and the
// crash lands at the same point of the migration. It stops early when
// the server crashes. Returns the index past the last delivered request
// and how many 503s the admission gate returned.
func drive(url string, srv *coradd.Server, stream []*coradd.Query, from int, crashed <-chan struct{}) (sent, shed int) {
	client := &http.Client{Timeout: 10 * time.Second}
	for i := from; i < len(stream); i++ {
		// Full query documents: the augmented mix is not in the daemon's
		// base catalog, so {"name":...} references would not resolve.
		body, err := json.Marshal(stream[i])
		must(err)
		for {
			// Checked per attempt, not per request: after the crash the
			// server still answers — 503 "not serving (crashed)" — and an
			// impatient retry loop would otherwise spin on it forever.
			select {
			case <-crashed:
				return i, shed
			default:
			}
			resp, err := client.Post(url+"/query", "application/json", bytes.NewReader(body))
			if err != nil {
				// The crash may close the server between requests.
				if crashed != nil {
					return i, shed
				}
				must(err)
			}
			resp.Body.Close()
			if resp.StatusCode == http.StatusServiceUnavailable {
				shed++
				time.Sleep(2 * time.Millisecond)
				continue
			}
			if resp.StatusCode != http.StatusOK {
				panic(fmt.Sprintf("request %d: unexpected status %d", i+1, resp.StatusCode))
			}
			break
		}
		for st := srv.Status(); st.Observed+st.Dropped < int64(i+1-from) || st.Solving; st = srv.Status() {
			select {
			case <-crashed:
				return i + 1, shed
			case <-time.After(time.Millisecond):
			}
		}
	}
	return len(stream), shed
}

// printMetrics scrapes /metrics and echoes the request-facing slice of
// the exposition — what a Prometheus collector would ingest.
func printMetrics(url string) {
	resp, err := http.Get(url + "/metrics")
	must(err)
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	fmt.Println("\n/metrics (request-facing series):")
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "coradd_http_requests_total{") ||
			strings.HasPrefix(line, "coradd_http_request_seconds_count") ||
			strings.HasPrefix(line, "coradd_server_shed_total") ||
			strings.HasPrefix(line, "coradd_adapt_builds_total") {
			fmt.Println("  " + line)
		}
	}
	must(sc.Err())
}

func must(err error) {
	if err != nil {
		panic(err)
	}
}
