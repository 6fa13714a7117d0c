package main

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// client is one sender with its own connection: a Transport capped at a
// single keep-alive connection, so C clients are exactly C TCP
// connections and a slow reply delays only that sender's next request.
type client struct {
	http *http.Client
	url  string
}

func newClients(n int, baseURL string) []*client {
	out := make([]*client, n)
	for i := range out {
		out[i] = &client{
			url: baseURL + "/query",
			http: &http.Client{
				Timeout: 10 * time.Second,
				Transport: &http.Transport{
					MaxConnsPerHost:     1,
					MaxIdleConnsPerHost: 1,
					IdleConnTimeout:     time.Minute,
				},
			},
		}
	}
	return out
}

func (c *client) close() { c.http.CloseIdleConnections() }

// post sends one /query body; ok means transport success and HTTP 200.
func (c *client) post(body []byte) bool {
	resp, err := c.http.Post(c.url, "application/json", bytes.NewReader(body))
	if err != nil {
		return false
	}
	_, err = io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	return err == nil && resp.StatusCode == http.StatusOK
}

// loadResult is what one load phase measured. A failed request (transport
// error or non-200) has no latency sample and is counted in Failed.
type loadResult struct {
	// LatencyMS holds one sample per successful request, in schedule
	// order; Index[k] is the schedule position of LatencyMS[k] (request i
	// of an open loop is due at Start + i/rate).
	LatencyMS []float64
	Index     []int
	// LateMS is, per open-loop request in schedule order, how long after
	// its due instant the generator actually started sending it.
	LateMS    []float64
	Attempted int
	Failed    int
	Start     time.Time
	Elapsed   time.Duration
}

// sample is one request as a sender recorded it.
type sample struct {
	idx       int
	latencyMS float64
	lateMS    float64
	ok        bool
}

// collect merges the senders' samples into r in schedule order.
func (r *loadResult) collect(parts [][]sample) {
	var all []sample
	for _, p := range parts {
		all = append(all, p...)
	}
	sort.Slice(all, func(i, j int) bool { return all[i].idx < all[j].idx })
	for _, s := range all {
		r.Attempted++
		r.LateMS = append(r.LateMS, s.lateMS)
		if s.ok {
			r.LatencyMS = append(r.LatencyMS, s.latencyMS)
			r.Index = append(r.Index, s.idx)
		} else {
			r.Failed++
		}
	}
	r.Elapsed = time.Since(r.Start)
}

// closedLoop runs `senders` callers that each wait for a reply before
// sending the next request, for d. send(sender, i) performs request i
// (a global sequence number) and reports success.
func closedLoop(senders int, d time.Duration, send func(sender, i int) bool) loadResult {
	res := loadResult{Start: time.Now()}
	deadline := res.Start.Add(d)
	var next atomic.Int64
	parts := make([][]sample, senders)
	var wg sync.WaitGroup
	for s := range senders {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(deadline) {
				i := int(next.Add(1) - 1)
				t := time.Now()
				ok := send(s, i)
				parts[s] = append(parts[s], sample{idx: i, latencyMS: ms(time.Since(t)), ok: ok})
			}
		}()
	}
	wg.Wait()
	res.collect(parts)
	return res
}

// openLoop sends on a fixed schedule regardless of replies: request i is
// due at start + i/rate and is taken by whichever sender is free. Every
// request is timed from its due instant, so the wait a stall imposes on
// the requests queued behind it is counted; how late the generator
// itself started each send is reported apart. The phase ends after d, or
// earlier when stop (optional) turns true.
func openLoop(senders int, rate float64, d time.Duration, stop *atomic.Bool, send func(sender, i int) bool) loadResult {
	res := loadResult{Start: time.Now()}
	total := int64(rate * d.Seconds())
	interval := float64(time.Second) / rate
	var next atomic.Int64
	parts := make([][]sample, senders)
	var wg sync.WaitGroup
	for s := range senders {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := next.Add(1) - 1
				if i >= total || (stop != nil && stop.Load()) {
					return
				}
				due := res.Start.Add(time.Duration(float64(i) * interval))
				sleepUntil(due)
				late := time.Since(due)
				ok := send(s, int(i))
				parts[s] = append(parts[s], sample{idx: int(i), latencyMS: ms(time.Since(due)), lateMS: ms(late), ok: ok})
			}
		}()
	}
	wg.Wait()
	res.collect(parts)
	return res
}

// sleepUntil blocks until t with a nanosleep(2) on the calling thread.
// time.Sleep parks the goroutine on the runtime's poller, whose timeout
// is rounded up to a whole millisecond once the process has network
// activity — half a millisecond of mean lateness at these rates, more
// than the service time being measured.
func sleepUntil(t time.Time) {
	if d := time.Until(t); d > 0 {
		ts := syscall.NsecToTimespec(int64(d))
		syscall.Nanosleep(&ts, nil)
	}
}

// latencyLimitMS is the limit the fixed-rate sweep judges each rate by:
// p99 measured from due time must stay within it (and the phase must be
// long enough to support a p99), no request may fail, and the generator
// must not be falling behind.
const latencyLimitMS = 5.0

// meetsLimit reports whether an open-loop phase met the latency limit
// without a growing backlog: a backlog shows as the generator starting
// its last requests ever later, so the median lateness of the final
// tenth of the phase is held to the same limit.
func meetsLimit(r loadResult) bool {
	if r.Failed > 0 || len(r.LatencyMS) == 0 {
		return false
	}
	s := summarize(r.LatencyMS, r.Failed)
	if s.P99 == 0 || s.P99 > latencyLimitMS {
		return false
	}
	lastTenth := r.LateMS[len(r.LateMS)*9/10:]
	return median(lastTenth) <= latencyLimitMS
}

func (r loadResult) String() string {
	return fmt.Sprintf("attempted=%d failed=%d %s ms late_p50=%.3fms",
		r.Attempted, r.Failed, summarize(r.LatencyMS, r.Failed), median(r.LateMS))
}
