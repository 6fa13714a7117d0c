package main

import (
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
)

// metricDef fixes one end-to-end metric: its unit, which direction is
// better, and the bound by which it may worsen before -compare calls the
// change a regression.
type metricDef struct {
	Name   string
	Unit   string
	Better string // "lower" | "higher"
	// Bound is the allowed worsening as a share of the base median;
	// AbsBound an absolute allowance for ratios that sit at or near 0,
	// where a share of the median means nothing.
	Bound    float64
	AbsBound float64
	// Everywhere marks the metrics every workload reports — the set the
	// benchmark contract (BENCHMARK.json end_to_end) carries. The rest
	// exist only on the workloads whose user waits for them.
	Everywhere bool
	// Exact marks values that must repeat exactly at a fixed seed.
	Exact bool
}

// endToEnd lists the fourteen end-to-end metrics. README.md has the
// per-workload definition of each.
var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25, Everywhere: true},
	{Name: "p50_ms", Unit: "ms", Better: "lower", Bound: 0.25, Everywhere: true},
	{Name: "qps", Unit: "1/s", Better: "higher", Bound: 0.25, Everywhere: true},
	{Name: "rss_mb", Unit: "MB", Better: "lower", Bound: 0.10},
	{Name: "design_s", Unit: "s", Better: "lower", Bound: 0.10},
	{Name: "design_quality_sec", Unit: "sim_s", Better: "lower", Bound: 0.005, Exact: true},
	{Name: "materialize_s", Unit: "s", Better: "lower", Bound: 0.10},
	{Name: "exec_qps", Unit: "1/s", Better: "higher", Bound: 0.10},
	{Name: "alloc_gb", Unit: "GB", Better: "lower", Bound: 0.05},
	{Name: "p99_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "adapt_s", Unit: "s", Better: "lower", Bound: 0.15},
	{Name: "obs_drop_ratio", Unit: "ratio", Better: "lower", AbsBound: 0.05},
	{Name: "recover_s", Unit: "s", Better: "lower", Bound: 0.20},
	{Name: "fail_ratio", Unit: "ratio", Better: "lower", AbsBound: 0.001},
}

func endToEndDef(name string) *metricDef {
	for i := range endToEnd {
		if endToEnd[i].Name == name {
			return &endToEnd[i]
		}
	}
	return nil
}

// metricValue is one reported number with everything a reader needs to
// judge it: unit, direction, the sample count behind it, its bound, and
// for timings the distribution summary.
type metricValue struct {
	Value    float64         `json:"value"`
	Unit     string          `json:"unit"`
	Better   string          `json:"better,omitempty"`
	N        int             `json:"n"`
	Bound    float64         `json:"bound,omitempty"`
	AbsBound float64         `json:"abs_bound,omitempty"`
	Exact    bool            `json:"exact,omitempty"`
	Dist     *latencySummary `json:"distribution,omitempty"`
}

// workloadResult is one run of one workload.
type workloadResult struct {
	Workload  string                 `json:"workload"`
	Seed      int64                  `json:"seed"`
	Traced    bool                   `json:"traced"`
	WallS     float64                `json:"wall_s"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	EndToEnd  map[string]metricValue `json:"end_to_end,omitempty"`
	PerLayer  map[string]metricValue `json:"per_layer,omitempty"`
	// Checks lists the output verifications that ran and passed; a failed
	// one aborts the run instead.
	Checks []string `json:"checks"`
}

func newResult(workload string, seed int64) *workloadResult {
	return &workloadResult{Workload: workload, Seed: seed,
		EndToEnd: map[string]metricValue{}, PerLayer: map[string]metricValue{}}
}

// set records an end-to-end metric by its fixed definition.
func (r *workloadResult) set(name string, v float64, n int) {
	d := endToEndDef(name)
	if d == nil {
		panic("bench: undefined end-to-end metric " + name)
	}
	r.EndToEnd[name] = metricValue{Value: v, Unit: d.Unit, Better: d.Better, N: n,
		Bound: d.Bound, AbsBound: d.AbsBound, Exact: d.Exact}
}

// setDist is set for a timing that has a distribution behind it.
func (r *workloadResult) setDist(name string, v float64, dist latencySummary) {
	r.set(name, v, dist.N)
	mv := r.EndToEnd[name]
	mv.Dist = &dist
	r.EndToEnd[name] = mv
}

// layer records a per-layer metric by its fixed definition (no bound:
// layers explain, they do not gate).
func (r *workloadResult) layer(name string, v float64, n int) {
	d := layerDef(name)
	if d == nil {
		panic("bench: undefined per-layer metric " + name)
	}
	r.PerLayer[name] = metricValue{Value: v, Unit: d.Unit, Better: d.Better, N: n, Exact: d.Unit == "count"}
}

// layerMS records the median duration of reps calls of f, in ms.
func (r *workloadResult) layerMS(name string, reps int, f func()) {
	r.layer(name, ms(medianDur(reps, f)), reps)
}

func (r *workloadResult) check(format string, args ...any) {
	r.Checks = append(r.Checks, fmt.Sprintf(format, args...))
}

// print writes every metric of the run by name with unit, sample count
// and bound.
func (r *workloadResult) print(w *os.File) {
	fmt.Fprintf(w, "== %s seed=%d traced=%v wall=%.1fs attempted=%d failed=%d\n",
		r.Workload, r.Seed, r.Traced, r.WallS, r.Attempted, r.Failed)
	printMetrics(w, r.EndToEnd)
	printMetrics(w, r.PerLayer)
	for _, c := range r.Checks {
		fmt.Fprintf(w, "  check ok: %s\n", c)
	}
}

func printMetrics(w *os.File, m map[string]metricValue) {
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		v := m[n]
		line := fmt.Sprintf("  %-32s %14.6g %-6s n=%-6d", n, v.Value, v.Unit, v.N)
		switch {
		case v.Bound > 0:
			line += fmt.Sprintf(" %s is better, bound %g%%", v.Better, v.Bound*100)
		case v.AbsBound > 0:
			line += fmt.Sprintf(" %s is better, bound +%g abs", v.Better, v.AbsBound)
		}
		if v.Dist != nil {
			line += "  [" + v.Dist.String() + "]"
		}
		fmt.Fprintln(w, strings.TrimRight(line, " "))
	}
}

// environment is recorded next to every result: numbers from different
// machines or commits must not be compared silently.
type environment struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Commit     string `json:"commit"`
	Dirty      bool   `json:"dirty"`
	Kernel     string `json:"kernel"`
	Clients    int    `json:"clients"`
}

func captureEnvironment(root string, clients int) environment {
	env := environment{
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Commit:     "unknown",
		Clients:    clients,
	}
	git := func(args ...string) (string, error) {
		cmd := exec.Command("git", args...)
		cmd.Dir = root
		out, err := cmd.Output()
		return strings.TrimSpace(string(out)), err
	}
	// The driver's checkout is not a git repository: commit stays "unknown".
	if head, err := git("rev-parse", "HEAD"); err == nil {
		env.Commit = head
		if status, err := git("status", "--porcelain"); err == nil {
			env.Dirty = status != ""
		}
	}
	if data, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		env.Kernel = strings.TrimSpace(string(data))
	}
	return env
}

// resultFile is what a suite run leaves in bench/out/<commit>-<seed>.json
// and what -compare reads: every run of every workload, so medians and
// spreads are computed from the runs, never stored pre-digested.
type resultFile struct {
	Environment environment       `json:"environment"`
	Seed        int64             `json:"seed"`
	Seconds     float64           `json:"seconds"`
	BuildS      float64           `json:"harness.build_s"`
	Runs        []*workloadResult `json:"runs"`
}

func (f *resultFile) write(dir string) (string, error) {
	commit := f.Environment.Commit
	if len(commit) > 12 {
		commit = commit[:12]
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-%d.json", commit, f.Seed))
	data, err := json.MarshalIndent(f, "", " ")
	if err != nil {
		return "", err
	}
	return path, os.WriteFile(path, data, 0o644)
}

func readResultFile(path string) (*resultFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f resultFile
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, fmt.Errorf("%s: %v", path, err)
	}
	return &f, nil
}
