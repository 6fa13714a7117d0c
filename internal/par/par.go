// Package par is the repository's bounded worker-pool layer: it fans
// independent units of the design pipeline — candidate costing, design
// materialization/measurement, per-query execution — across a fixed number
// of goroutines while keeping results positionally deterministic.
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
package par

import (
	"fmt"
	"runtime"
	"runtime/debug"
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

// DefaultWorkers is the pool width used when a call site does not override
// it: one worker per available CPU.
func DefaultWorkers() int { return runtime.GOMAXPROCS(0) }

// ForEach runs fn(i) for every i in [0,n) on at most workers goroutines
// (workers <= 0 selects DefaultWorkers). It returns when all calls have
// finished. For n <= 1 or a single worker it degrades to a plain loop —
// callers never pay goroutine overhead for trivial fan-outs.
//
// Panics: a panicking fn(i) does not crash the process from inside the
// pool. Every index still runs, and ForEach then re-panics on the CALLER
// goroutine with a *WorkerPanic carrying the lowest panicking index, the
// original panic value and the stack captured at the panic site — the
// same panic a sequential loop ordered by index would have surfaced
// first, so the surfaced failure is deterministic at any worker count.
//
// Indexes are handed to workers in ascending order (a shared atomic
// counter), so when fn(i) starts, every fn(j) with j < i has already
// started.
func ForEach(n, workers int, fn func(i int)) {
	if n <= 0 {
		return
	}
	if workers <= 0 {
		workers = DefaultWorkers()
	}
	if workers > n {
		workers = n
	}
	panics := make([]*WorkerPanic, n)
	if n == 1 || workers == 1 {
		for i := 0; i < n; i++ {
			call(fn, i, panics)
		}
	} else {
		var next atomic.Int64
		var wg sync.WaitGroup
		wg.Add(workers)
		for w := 0; w < workers; w++ {
			go func() {
				defer wg.Done()
				for {
					i := int(next.Add(1)) - 1
					if i >= n {
						return
					}
					call(fn, i, panics)
				}
			}()
		}
		wg.Wait()
	}
	for _, p := range panics {
		if p != nil {
			panic(p)
		}
	}
}

// ForEachErr is ForEach for fallible work: every fn(i) runs (no
// short-circuiting, so side effects like cache fills stay deterministic)
// and the error of the LOWEST index that failed is returned — the same
// error a sequential loop that collected all errors would report first.
func ForEachErr(n, workers int, fn func(i int) error) error {
	if n <= 0 {
		return nil
	}
	errs := make([]error, n)
	ForEach(n, workers, func(i int) { errs[i] = fn(i) })
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}
