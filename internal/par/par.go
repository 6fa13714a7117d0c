// Package par is the repository's one fan-out layer: it spreads
// independent units of the design pipeline — candidate costing, design
// materialization/measurement, per-query execution — across the CPUs while
// keeping results positionally deterministic.
//
// The contract every call site relies on:
//
//   - fn(i) writes only to slot i of its output slice(s), so no two
//     goroutines touch the same memory and results are ordered exactly as a
//     sequential loop would order them;
//   - shared inputs (statistics, cost-model caches, the materialization
//     cache) are internally synchronized and memoize deterministic values,
//     so execution order cannot change any result;
//   - floating-point reductions happen AFTER the fan-out, in index order,
//     keeping totals bit-identical to sequential runs.
//
// Width is not a parameter. The process keeps one budget of helper
// goroutines, at most GOMAXPROCS−1 at any moment, shared by every call. A
// call runs indexes on its own goroutine, and every goroutine working for
// it recruits one free helper each time it takes an index while more
// remain, so a call fans out as it starts. It never waits for a slot: a
// call nested inside a busy fan-out runs inline, and puts itself on a
// queue of calls that want help. A helper whose call has no index left
// joins the oldest queued call that still has one before it gives its
// slot back, so a straggler picks up the helpers its siblings release
// while its own long index runs. Under one top-level caller at most
// GOMAXPROCS goroutines run fn at once, however deeply the calls nest.
package par

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"slices"
	"sync"
	"sync/atomic"
)

// WorkerPanic is the value ForEach re-panics with when one or more fn(i)
// calls panicked: the lowest panicking index, its original panic value and
// the stack captured at the panic site. A worker panic would otherwise
// crash the process with a goroutine trace pointing into the pool instead
// of the caller; wrapping lets a boundary (e.g. adapt.Controller.Process)
// recover it and turn one poisoned work item into an error.
type WorkerPanic struct {
	// Index is the lowest i whose fn(i) panicked.
	Index int
	// Value is fn(Index)'s original panic value.
	Value any
	// Stack is the goroutine stack captured where fn(Index) panicked.
	Stack []byte
}

// Error makes a recovered WorkerPanic usable as an error.
func (p *WorkerPanic) Error() string { return p.String() }

// String renders the panic with its original stack.
func (p *WorkerPanic) String() string {
	return fmt.Sprintf("par: fn(%d) panicked: %v\n\noriginal stack:\n%s", p.Index, p.Value, p.Stack)
}

// call runs fn(i), capturing a panic into panics[i] instead of unwinding
// the worker. Every index still runs (matching ForEachErr's
// no-short-circuit rule), so side effects like cache fills stay
// deterministic even on a panicking input.
func call(fn func(i int), i int, panics []*WorkerPanic) {
	defer func() {
		if r := recover(); r != nil {
			panics[i] = &WorkerPanic{Index: i, Value: r, Stack: debug.Stack()}
		}
	}()
	fn(i)
}

var (
	// helpers counts the helper goroutines running for any call.
	helpers atomic.Int32
	mu      sync.Mutex
	// waiting holds, oldest first, the calls that found the budget spent
	// while they had indexes left. A call is on it at most once, and never
	// once its indexes are all taken.
	waiting []*job
)

// job is one ForEach call.
type job struct {
	n      int
	fn     func(i int)
	limit  int32
	next   atomic.Int64
	queued atomic.Bool // on waiting; set and cleared under mu
	wg     sync.WaitGroup
	panics []*WorkerPanic
}

// run takes and runs indexes until none is left.
func (j *job) run() {
	for {
		i := int(j.next.Add(1)) - 1
		if i >= j.n {
			return
		}
		if i+1 < j.n {
			j.recruit()
		}
		call(j.fn, i, j.panics)
	}
}

// recruit starts a helper for j if the budget has a slot, and otherwise
// queues j for the next helper that frees up.
func (j *job) recruit() {
	for h := helpers.Load(); h < j.limit; h = helpers.Load() {
		if helpers.CompareAndSwap(h, h+1) {
			j.wg.Add(1)
			go help(j)
			return
		}
	}
	if j.limit == 0 || j.queued.Load() {
		return
	}
	mu.Lock()
	if !j.queued.Load() && int(j.next.Load()) < j.n {
		j.queued.Store(true)
		waiting = append(waiting, j)
	}
	mu.Unlock()
}

// help works for j, then for the oldest queued call with an index left
// while there is one, and then gives its slot back: before the last
// call's Done, so a returned call holds none. It joins a call only under
// mu, and a call's owner takes mu once it runs out of indexes and before
// it waits, so the join's Add precedes that Wait.
func help(j *job) {
	for j != nil {
		j.run()
		var next *job
		mu.Lock()
		for next == nil && len(waiting) > 0 {
			w := waiting[0]
			waiting[0], waiting = nil, waiting[1:]
			w.queued.Store(false)
			if int(w.next.Load()) < w.n {
				w.wg.Add(1)
				next = w
			}
		}
		mu.Unlock()
		if next == nil {
			helpers.Add(-1)
		}
		j.wg.Done()
		j = next
	}
}

// ForEach runs fn(i) for every i in [0,n) and returns when all calls have
// finished. The calling goroutine runs indexes itself, helped by as many
// goroutines as the process-wide budget has free (see the package
// comment); with none free, or for n == 1, it is a plain loop.
//
// Panics: a panicking fn(i) does not crash the process from inside the
// pool. Every index still runs, and ForEach then re-panics on the CALLER
// goroutine with a *WorkerPanic carrying the lowest panicking index, the
// original panic value and the stack captured at the panic site — the
// same panic a sequential loop ordered by index would have surfaced
// first, so the surfaced failure is deterministic at any width.
//
// Indexes are taken in ascending order (a shared atomic counter), so when
// fn(i) starts, every fn(j) with j < i has been taken by a goroutine that
// runs it next, waiting on no other index.
func ForEach(n int, fn func(i int)) {
	if n <= 0 {
		return
	}
	j := &job{n: n, fn: fn, limit: int32(runtime.GOMAXPROCS(0) - 1), panics: make([]*WorkerPanic, n)}
	j.run()
	// Leave the queue before waiting: after this no helper joins j.
	mu.Lock()
	if j.queued.Load() {
		waiting = slices.DeleteFunc(waiting, func(w *job) bool { return w == j })
		j.queued.Store(false)
	}
	mu.Unlock()
	j.wg.Wait()
	for _, p := range j.panics {
		if p != nil {
			panic(p)
		}
	}
}

// ForEachErr is ForEach for fallible work: every fn(i) runs (no
// short-circuiting, so side effects like cache fills stay deterministic)
// and the error of the LOWEST index that failed is returned — the same
// error a sequential loop that collected all errors would report first.
func ForEachErr(n int, fn func(i int) error) error {
	if n <= 0 {
		return nil
	}
	errs := make([]error, n)
	ForEach(n, func(i int) { errs[i] = fn(i) })
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}
