package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"strings"
	"testing"
	"time"
)

func TestPickTailNeedsTenSamplesBeyond(t *testing.T) {
	for _, tc := range []struct {
		n    int
		want float64
		ok   bool
	}{
		{99, 0, false},
		{100, 0.90, true},
		{199, 0.90, true},
		{200, 0.95, true},
		{999, 0.95, true},
		{1000, 0.99, true},
		{9999, 0.99, true},
		{10000, 0.999, true},
		{1_000_000, 0.999, true},
	} {
		got, ok := pickTail(tc.n)
		if ok != tc.ok || got != tc.want {
			t.Errorf("pickTail(%d) = %v, %v; want %v, %v", tc.n, got, ok, tc.want, tc.ok)
		}
	}
}

func TestSummarizeQuotesOnlySupportedPercentiles(t *testing.T) {
	samples := make([]float64, 500)
	for i := range samples {
		samples[len(samples)-1-i] = float64(i + 1) // descending: order must not matter
	}
	s := summarize(samples, 3)
	if s.N != 500 || s.P50 != 250 || s.Max != 500 || s.Failed != 3 {
		t.Errorf("summary = %+v", s)
	}
	if s.TailP != 0.95 || s.Tail != 475 {
		t.Errorf("500 samples support p95 (25 beyond): tail = p%g %g", s.TailP*100, s.Tail)
	}
	if s.P99 != 0 {
		t.Errorf("p99 of 500 samples has only 5 beyond it and must not be quoted, got %g", s.P99)
	}
	if s := summarize(make([]float64, 1000), 0); s.TailP != 0.99 {
		t.Errorf("1000 samples support p99, got p%g", s.TailP*100)
	}
	if s := summarize(nil, 2); s.N != 0 || s.Failed != 2 {
		t.Errorf("empty summary = %+v", s)
	}
}

func TestQuartileSpreadMatchesPythonQuantiles(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	vs := []float64{7, 1, 10, 3, 5, 2, 9, 4, 8, 6}
	if got := quartileSpread(vs); math.Abs(got-1.0) > 1e-12 {
		t.Errorf("spread = %v, want (8.25-2.75)/5.5 = 1", got)
	}
	// statistics.quantiles([10, 12, 11], n=4) == [10.0, 11.0, 12.0]
	if got := quartileSpread([]float64{10, 12, 11}); math.Abs(got-2.0/11) > 1e-12 {
		t.Errorf("spread = %v, want 2/11", got)
	}
	if got := quartileSpread([]float64{5}); got != 0 {
		t.Errorf("one value has no spread, got %v", got)
	}
}

// A server that takes 4 ms behind one sender cannot keep a 1000 req/s
// schedule: every request waits for the ones before it. Timing from the
// due instant must show that queueing; timing from the send would not.
func TestOpenLoopTimesFromDueInstantsAndReportsLateness(t *testing.T) {
	const service = 4 * time.Millisecond
	r := openLoop(1, 1000, 40*time.Millisecond, nil, func(sender, i int) bool {
		time.Sleep(service)
		return i != 3 // one failure: no latency sample, counted
	})
	if r.Attempted != 40 || r.Failed != 1 || len(r.LatencyMS) != 39 || len(r.LateMS) != 40 {
		t.Fatalf("attempted=%d failed=%d samples=%d late=%d", r.Attempted, r.Failed, len(r.LatencyMS), len(r.LateMS))
	}
	for k := 1; k < len(r.Index); k++ {
		if r.Index[k] <= r.Index[k-1] {
			t.Fatalf("samples out of schedule order: %v", r.Index)
		}
	}
	first, last := r.LatencyMS[0], r.LatencyMS[len(r.LatencyMS)-1]
	// Request 39 is due at 39 ms but the 39 before it took ≥ 156 ms.
	if first > 20 || last < 100 {
		t.Errorf("latency from due time should grow with the backlog: first %.1f ms, last %.1f ms", first, last)
	}
	if late := r.LateMS[len(r.LateMS)-1]; late < 100 {
		t.Errorf("generator lateness of the last request = %.1f ms, want the backlog (≥100 ms)", late)
	}
	if meetsLimit(r) {
		t.Error("a growing backlog with a failed request must not meet the latency limit")
	}

	// A fast server keeps the schedule: latency stays near the service
	// time and the generator is not late.
	fast := openLoop(2, 500, 60*time.Millisecond, nil, func(sender, i int) bool { return true })
	if fast.Attempted != 30 || fast.Failed != 0 {
		t.Fatalf("fast: attempted=%d failed=%d", fast.Attempted, fast.Failed)
	}
	if m := median(fast.LatencyMS); m > 5 {
		t.Errorf("fast: median latency %.2f ms", m)
	}
	if fast.Elapsed < 50*time.Millisecond {
		t.Errorf("fast: the schedule spans 58 ms, the phase took %s", fast.Elapsed)
	}
}

func TestSelfTimeSubtractsMergedChildren(t *testing.T) {
	spans := []span{
		{ID: 1, Parent: 0, Name: "root", StartNS: 0, EndNS: 100},
		{ID: 2, Parent: 1, Name: "a", StartNS: 10, EndNS: 30},
		{ID: 3, Parent: 1, Name: "b", StartNS: 20, EndNS: 50}, // overlaps a: concurrent children
		{ID: 4, Parent: 1, Name: "a", StartNS: 60, EndNS: 70},
		{ID: 5, Parent: 3, Name: "c", StartNS: 25, EndNS: 45},
		{ID: 6, Parent: 1, Name: "late", StartNS: 90, EndNS: 120}, // clipped to the parent
	}
	self := selfTimes(spans)
	want := map[string]time.Duration{
		"root": 100 - (40 + 10 + 10), // [10,50] ∪ [60,70] ∪ [90,100]
		"a":    20 + 10,
		"b":    30 - 20,
		"c":    20,
		"late": 30,
	}
	for name, w := range want {
		if self[name] != w {
			t.Errorf("self time of %s = %d, want %d", name, self[name], w)
		}
	}
	if total := totalByName(spans)["a"]; total != 30 {
		t.Errorf("total of a = %d, want 30", total)
	}
}

func TestTracerRecordsParentsAndNilTracerRecordsNothing(t *testing.T) {
	tr := newTracer("w")
	tr.do(0, "outer", func(id int) {
		tr.do(id, "inner", func(int) {})
	})
	if tr.count() != 2 || tr.spans[1].Parent != tr.spans[0].ID || tr.spans[0].Workload != "w" {
		t.Errorf("spans = %+v", tr.spans)
	}
	if tr.spans[0].EndNS < tr.spans[1].EndNS || tr.spans[1].StartNS < tr.spans[0].StartNS {
		t.Errorf("inner span not inside outer: %+v", tr.spans)
	}
	var off *tracer
	ran := false
	off.do(0, "x", func(int) { ran = true })
	if !ran || off.count() != 0 {
		t.Error("a nil tracer must run the function and record nothing")
	}
}

// run builds a synthetic untraced run.
func run(workload string, metrics map[string]float64) *workloadResult {
	r := newResult(workload, 42)
	for name, v := range metrics {
		r.set(name, v, 1)
	}
	return r
}

func runsOf(workload, metric string, values ...float64) []*workloadResult {
	var out []*workloadResult
	for _, v := range values {
		out = append(out, run(workload, map[string]float64{metric: v}))
	}
	return out
}

func TestCompareVerdicts(t *testing.T) {
	for _, tc := range []struct {
		name         string
		metric       string
		base, change []float64
		want         string
		exit         int
	}{
		{"within bound", "design_s", []float64{10, 10.1, 9.9}, []float64{10.5, 10.6, 10.4}, verdictOK, 0},
		{"beyond bound", "design_s", []float64{10, 10.1, 9.9}, []float64{11.5, 11.6, 11.4}, verdictRegressed, 1},
		{"improvement", "design_s", []float64{10, 10.1, 9.9}, []float64{5, 5.1, 4.9}, verdictOK, 0},
		{"spread wider than bound", "design_s", []float64{8, 10, 13}, []float64{9, 11.5, 14}, verdictUnresolved, 0},
		{"wide spread, every run better", "design_s", []float64{8, 10, 13}, []float64{5, 6, 7.5}, verdictOK, 0},
		{"wide spread, every run worse", "design_s", []float64{8, 10, 13}, []float64{14, 17, 21}, verdictUnresolved, 0},
		{"higher is better, drop beyond bound", "exec_qps", []float64{1000, 1010, 990}, []float64{850, 860, 840}, verdictRegressed, 1},
		{"higher is better, rise", "exec_qps", []float64{1000, 1010, 990}, []float64{1500, 1510, 1490}, verdictOK, 0},
		{"absolute bound holds at zero", "obs_drop_ratio", []float64{0, 0, 0}, []float64{0.03, 0.03, 0.03}, verdictOK, 0},
		{"absolute bound exceeded", "obs_drop_ratio", []float64{0.4, 0.41, 0.4}, []float64{0.5, 0.5, 0.51}, verdictRegressed, 1},
		{"any higher fail_ratio", "fail_ratio", []float64{0, 0, 0}, []float64{0.0005, 0.0005, 0.0005}, verdictRegressed, 1},
	} {
		a := &resultFile{Seed: 42, Seconds: 10, Runs: runsOf("design_ssb52", tc.metric, tc.base...)}
		b := &resultFile{Seed: 42, Seconds: 10, Runs: runsOf("design_ssb52", tc.metric, tc.change...)}
		var out bytes.Buffer
		exit := compareResults(&out, a, b)
		var row string
		for _, line := range strings.Split(out.String(), "\n") {
			if strings.HasPrefix(line, "design_ssb52") {
				row = line
			}
		}
		if exit != tc.exit || !strings.HasSuffix(strings.TrimSpace(row), tc.want) {
			t.Errorf("%s: exit %d (want %d), row %q (want verdict %q)", tc.name, exit, tc.exit, row, tc.want)
		}
	}
}

func TestCompareFlagsExactValuesThatDiffer(t *testing.T) {
	a := &resultFile{Seed: 42, Runs: runsOf("design_ssb52", "design_quality_sec", 3.3422)}
	b := &resultFile{Seed: 42, Runs: runsOf("design_ssb52", "design_quality_sec", 3.3423)}
	var out bytes.Buffer
	if exit := compareResults(&out, a, b); exit != 0 {
		t.Errorf("a 0.003%% difference is inside the 0.5%% bound, exit %d", exit)
	}
	if !strings.Contains(out.String(), "exact value differs") {
		t.Errorf("a deterministic metric that moved at a fixed seed must be flagged:\n%s", out.String())
	}
}

// BENCHMARK.json is written by hand; the driver reads it, the harness
// reads its own tables. They must say the same thing.
func TestBenchmarkJSONMatchesTheHarness(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the harness", len(doc.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if doc.Workloads[i].Name != w.name || doc.Workloads[i].Why != w.why || len(w.why) > 200 {
			t.Errorf("workload %d: %+v vs %s / %s", i, doc.Workloads[i], w.name, w.why)
		}
	}
	var everywhere []metricDef
	for _, d := range endToEnd {
		if d.Everywhere {
			everywhere = append(everywhere, d)
		}
	}
	if len(doc.EndToEnd) != len(everywhere) {
		t.Fatalf("%d end_to_end metrics in BENCHMARK.json, %d reported by every workload", len(doc.EndToEnd), len(everywhere))
	}
	for i, d := range everywhere {
		got := doc.EndToEnd[i]
		if got.Name != d.Name || got.Unit != d.Unit || got.Better != d.Better || got.Bound != d.Bound || d.Bound > 0.25 {
			t.Errorf("end_to_end %d: %+v vs %+v", i, got, d)
		}
	}
	var probes []perLayerDef
	for _, d := range perLayer {
		if !d.Daemon {
			probes = append(probes, d)
		}
	}
	if len(doc.PerLayer) != len(probes) || len(probes) > 128 {
		t.Fatalf("%d per_layer metrics in BENCHMARK.json, %d in the traced pass", len(doc.PerLayer), len(probes))
	}
	for i, d := range probes {
		if got := doc.PerLayer[i]; got.Name != d.Name || got.Unit != d.Unit || got.Better != d.Better {
			t.Errorf("per_layer %d: %+v vs %+v", i, got, d)
		}
	}
}
