package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed call from the harness into a layer. Spans of one
// workload run share Workload as their identifier; Parent is the ID of
// the span that caused this one (0 = root).
type span struct {
	ID       int    `json:"id"`
	Parent   int    `json:"parent"`
	Workload string `json:"workload"`
	Name     string `json:"name"`
	StartNS  int64  `json:"start_ns"`
	EndNS    int64  `json:"end_ns"`
}

// tracer keeps spans in memory and writes them out when the run ends.
// A nil tracer records nothing: the untraced pass runs the same helper
// calls at the cost of a nil check.
type tracer struct {
	workload string
	t0       time.Time
	mu       sync.Mutex
	spans    []span
}

func newTracer(workload string) *tracer {
	return &tracer{workload: workload, t0: time.Now()}
}

// do runs f as a child span of parent and returns the span's duration;
// f receives the new span's id to parent its own children.
func (t *tracer) do(parent int, name string, f func(id int)) time.Duration {
	if t == nil {
		start := time.Now()
		f(0)
		return time.Since(start)
	}
	start := time.Now()
	t.mu.Lock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Workload: t.workload, Name: name,
		StartNS: start.Sub(t.t0).Nanoseconds()})
	t.mu.Unlock()
	f(id)
	end := time.Now()
	t.mu.Lock()
	t.spans[id-1].EndNS = end.Sub(t.t0).Nanoseconds()
	t.mu.Unlock()
	return end.Sub(start)
}

func (t *tracer) count() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans)
}

// write stores the spans as JSON at path.
func (t *tracer) write(path string) error {
	t.mu.Lock()
	data, err := json.Marshal(t.spans)
	t.mu.Unlock()
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// selfTimes returns, per span name, the summed self time: each span's
// duration minus the part of its interval its direct children cover
// (overlapping children are merged first, so concurrent children are not
// subtracted twice).
func selfTimes(spans []span) map[string]time.Duration {
	children := make(map[int][][2]int64)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], [2]int64{s.StartNS, s.EndNS})
		}
	}
	out := make(map[string]time.Duration)
	for _, s := range spans {
		out[s.Name] += time.Duration(s.EndNS - s.StartNS - covered(children[s.ID], s.StartNS, s.EndNS))
	}
	return out
}

// covered is the length of the union of the intervals, clipped to [lo,hi].
func covered(iv [][2]int64, lo, hi int64) int64 {
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total int64
	end := lo
	for _, c := range iv {
		a, b := max(c[0], end), min(c[1], hi)
		if b > a {
			total += b - a
			end = b
		}
	}
	return total
}

// topSelfTimes renders the n largest self times, for the run log.
func topSelfTimes(spans []span, n int) string {
	self := selfTimes(spans)
	names := make([]string, 0, len(self))
	for name := range self {
		names = append(names, name)
	}
	sort.Slice(names, func(i, j int) bool { return self[names[i]] > self[names[j]] })
	out := ""
	for _, name := range names[:min(n, len(names))] {
		out += fmt.Sprintf(" %s=%.1fms", name, ms(self[name]))
	}
	return out
}

// totalByName sums span durations per name.
func totalByName(spans []span) map[string]time.Duration {
	out := make(map[string]time.Duration)
	for _, s := range spans {
		out[s.Name] += time.Duration(s.EndNS - s.StartNS)
	}
	return out
}

// spanCostNS calibrates what recording one span costs, so a traced run
// can state its own overhead without a second, untraced run of the same
// work: overhead = spans recorded × this / traced wall time.
func spanCostNS() float64 {
	const n = 20000
	t := newTracer("calibration")
	bare := time.Now()
	for range n {
		(*tracer)(nil).do(0, "x", func(int) {})
	}
	bareD := time.Since(bare)
	start := time.Now()
	for range n {
		t.do(0, "x", func(int) {})
	}
	return float64(time.Since(start)-bareD) / n
}
