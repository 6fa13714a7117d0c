// Command bench is coraddbench: four named workloads over the designer,
// the executor and a real coraddd child process, with end-to-end metrics
// measured untraced and per-layer metrics from a separate traced pass.
// README.md records why each workload exists and what should move what.
//
// Run from the repository root:
//
//	go run -C bench coradd/bench --seed 42                  all workloads, untraced
//	go run -C bench coradd/bench --seed 42 --trace 1        all workloads, traced pass
//	go run -C bench coradd/bench --workload serve_steady --seed 7 --seconds 10 --trace 0
//	go run -C bench coradd/bench -runs 3                    three runs each, medians
//	go run -C bench coradd/bench -compare out/A.json out/B.json
//
// With --workload the last line of standard output is the one-object
// JSON result the benchmark contract (BENCHMARK.json) asks for.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"syscall"
	"time"
)

// workloadDef is one named set of inputs.
type workloadDef struct {
	name string
	why  string
	// run measures the end-to-end metrics with tracing off.
	run func(cfg *runConfig) (*workloadResult, error)
	// trace replays the workload's pipeline from the harness with one
	// span per layer call.
	trace func(cfg *runConfig, tr *tracer, res *workloadResult) error
	// daemon says the workload needs the coraddd binary.
	daemon bool
}

// workloads are fixed by name; later issues cite them.
var workloads = []workloadDef{
	{name: "design_ssb52", run: runDesignSSB52, trace: traceDesignSSB52,
		why: "52 queries x 4 budgets, designer reads only the synopsis: isolates candgen/feedback/ilp/costmodel, no row scanned until the quality check"},
	{name: "build_exec_ssb13", run: runBuildExecSSB13, trace: traceBuildExecSSB13,
		why: "300k rows, 13 queries, quickly proven designs: cold builds beside repeated scans on one storage/exec/btree/cm layer; solver under 1% of the work"},
	{name: "serve_steady", run: runServeSteady, trace: traceServeSteady, daemon: true,
		why: "real coraddd over TCP, stationary mix, drift detection parked: pure request path with designer, solver and executor idle"},
	{name: "serve_drift", run: runServeDrift, trace: traceServeDrift, daemon: true,
		why: "real coraddd, workload shifts to 52 new templates: solve, build, checkpoint and serving contend in one process; then SIGKILL and resume"},
}

func findWorkload(name string) *workloadDef {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}

// runConfig is what every workload run receives.
type runConfig struct {
	seed    int64
	seconds float64
	// clients is C, the number of client connections / sender goroutines.
	clients   int
	outDir    string
	tmpDir    string
	daemonBin string
}

// phase is a share of the run's measured length.
func (c *runConfig) phase(share float64) time.Duration {
	return time.Duration(share * c.seconds * float64(time.Second))
}

func (c *runConfig) logf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "bench: "+format+"\n", args...)
}

// contractResult is the last line of standard output under --workload.
type contractResult struct {
	Correct   bool                      `json:"correct"`
	Attempted int                       `json:"attempted"`
	Failed    int                       `json:"failed"`
	Metrics   map[string]contractMetric `json:"metrics"`
}

type contractMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func main() {
	os.Exit(realMain())
}

func realMain() int {
	var (
		name    = flag.String("workload", "", "run one workload and end with the contract's one-line JSON result (default: all four)")
		seed    = flag.Int64("seed", 42, "drives data generation (in-process workloads) and the request shuffle and name/document split (serve workloads)")
		seconds = flag.Float64("seconds", 10, "length of one run's measured phase")
		trace   = flag.Int("trace", 0, "1 = the traced pass (per-layer metrics, spans to out/trace-<workload>.json); 0 = end-to-end metrics, tracing off")
		runs    = flag.Int("runs", 1, "repeat each workload this many times; -compare works on the medians")
		compare = flag.Bool("compare", false, "compare two result files: bench -compare A.json B.json")
	)
	flag.Parse()

	if *compare {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "usage: bench -compare A.json B.json")
			return 2
		}
		return compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1))
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintln(os.Stderr, "bench: --trace takes 0 or 1")
		return 2
	}
	selected := workloads
	if *name != "" {
		w := findWorkload(*name)
		if w == nil {
			fmt.Fprintf(os.Stderr, "bench: unknown workload %q\n", *name)
			return 2
		}
		selected = []workloadDef{*w}
	}

	root, err := repoRoot()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	outDir := filepath.Join(root, "bench", "out")
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	// Checkpoints, daemon logs and the daemon binary live in a directory
	// of this run's own inside the checkout, removed on every exit path.
	tmpDir, err := os.MkdirTemp(outDir, "run-")
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	cleanup := func() {
		killAllChildren()
		os.RemoveAll(tmpDir)
	}
	defer cleanup()
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	go func() {
		<-sig
		cleanup()
		os.Exit(130)
	}()

	cfg := &runConfig{
		seed: *seed, seconds: *seconds,
		clients: min(runtime.NumCPU(), 4),
		outDir:  outDir, tmpDir: tmpDir,
	}
	file := &resultFile{Environment: captureEnvironment(root, cfg.clients), Seed: *seed, Seconds: *seconds}
	for _, w := range selected {
		if w.daemon && *trace == 0 && cfg.daemonBin == "" {
			bin, took, err := buildDaemon(root, tmpDir)
			if err != nil {
				fmt.Fprintln(os.Stderr, "bench:", err)
				return 1
			}
			cfg.daemonBin, file.BuildS = bin, sec(took)
			fmt.Printf("harness.build_s %.3f s (go build ./cmd/coraddd, once)\n", file.BuildS)
		}
	}

	for _, w := range selected {
		for run := 0; run < *runs; run++ {
			res, err := runOnce(cfg, &w, *trace == 1)
			if err != nil {
				fmt.Fprintf(os.Stderr, "bench: %s FAILED: %v\n", w.name, err)
				return 1
			}
			res.print(os.Stdout)
			file.Runs = append(file.Runs, res)
		}
	}
	if *runs > 1 {
		printMedians(os.Stdout, file)
	}
	if *name == "" || *runs > 1 {
		path, err := file.write(outDir)
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 1
		}
		fmt.Println("results written to", path)
	}
	if *name != "" {
		line, err := json.Marshal(contractLine(file.Runs))
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 1
		}
		fmt.Println(string(line))
	}
	return 0
}

// runOnce runs one workload once: the untraced end-to-end measurement,
// or the traced pass (pipeline replay with spans, then the per-layer
// probes on pinned inputs).
func runOnce(cfg *runConfig, w *workloadDef, traced bool) (*workloadResult, error) {
	// A directory per run: a repeat must not find the previous run's
	// checkpoints and resume from them.
	dir, err := os.MkdirTemp(cfg.tmpDir, w.name+"-")
	if err != nil {
		return nil, err
	}
	run := *cfg
	run.tmpDir = dir
	cfg = &run
	start := time.Now()
	if !traced {
		res, err := w.run(cfg)
		if err != nil {
			return nil, err
		}
		res.WallS = sec(time.Since(start))
		return res, nil
	}
	res := newResult(w.name, cfg.seed)
	res.Traced = true
	res.EndToEnd = nil
	tr := newTracer(w.name)
	if err := w.trace(cfg, tr, res); err != nil {
		return nil, err
	}
	replay := time.Since(start)
	res.layer("trace.spans", float64(tr.count()), 1)
	res.layer("trace_overhead_pct", 100*float64(tr.count())*spanCostNS()/float64(replay.Nanoseconds()), tr.count())
	path := filepath.Join(cfg.outDir, "trace-"+w.name+".json")
	if err := tr.write(path); err != nil {
		return nil, err
	}
	cfg.logf("%d spans written to %s; self time by span name:%s", tr.count(), path, topSelfTimes(tr.spans, 8))
	if err := probeLayers(cfg, res); err != nil {
		return nil, err
	}
	for _, d := range perLayer {
		if _, ok := res.PerLayer[d.Name]; !ok && !d.Daemon {
			return nil, fmt.Errorf("traced pass did not report per-layer metric %s", d.Name)
		}
	}
	res.WallS = sec(time.Since(start))
	return res, nil
}

// contractLine reduces the runs of one workload to the benchmark
// contract's result object: the median over the runs of each metric every
// workload reports (untraced), or of every per-layer metric (traced).
func contractLine(runs []*workloadResult) contractResult {
	out := contractResult{Correct: true, Metrics: map[string]contractMetric{}}
	values := map[string][]float64{}
	units := map[string]string{}
	for _, res := range runs {
		out.Attempted += res.Attempted
		out.Failed += res.Failed
		metrics := res.EndToEnd
		if res.Traced {
			metrics = res.PerLayer
		}
		for name, v := range metrics {
			if d := endToEndDef(name); res.Traced || d.Everywhere {
				values[name] = append(values[name], v.Value)
				units[name] = v.Unit
			}
		}
	}
	out.Attempted = max(out.Attempted, 1)
	for name, vs := range values {
		out.Metrics[name] = contractMetric{Value: median(vs), Unit: units[name]}
	}
	return out
}
