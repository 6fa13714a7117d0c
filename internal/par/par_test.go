package par

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// atProcs runs f at each GOMAXPROCS in procs (0 = the one the test started
// with) and restores the setting afterwards.
func atProcs(t *testing.T, procs []int, f func(procs int)) {
	t.Helper()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, p := range procs {
		runtime.GOMAXPROCS(p)
		f(runtime.GOMAXPROCS(0))
	}
}

func TestForEachRunsEveryIndexOnce(t *testing.T) {
	atProcs(t, []int{0, 1, 3, 64}, func(procs int) {
		n := 257
		counts := make([]int64, n)
		ForEach(n, func(i int) { atomic.AddInt64(&counts[i], 1) })
		for i, c := range counts {
			if c != 1 {
				t.Fatalf("GOMAXPROCS=%d: index %d ran %d times", procs, i, c)
			}
		}
	})
}

func TestForEachZeroAndOne(t *testing.T) {
	ran := 0
	ForEach(0, func(int) { ran++ })
	if ran != 0 {
		t.Errorf("n=0 ran %d times", ran)
	}
	ForEach(1, func(i int) { ran += i + 1 })
	if ran != 1 {
		t.Errorf("n=1: ran=%d", ran)
	}
}

func TestForEachErrReturnsLowestIndexError(t *testing.T) {
	atProcs(t, []int{1, 8}, func(procs int) {
		n := 40
		err := ForEachErr(n, func(i int) error {
			if i%7 == 3 {
				return fmt.Errorf("fail at %d", i)
			}
			return nil
		})
		if err == nil || err.Error() != "fail at 3" {
			t.Fatalf("GOMAXPROCS=%d: got %v, want the lowest-index failure (3)", procs, err)
		}
		if err := ForEachErr(n, func(int) error { return nil }); err != nil {
			t.Fatalf("GOMAXPROCS=%d: unexpected error %v", procs, err)
		}
	})
}

func TestForEachErrRunsAllDespiteFailures(t *testing.T) {
	atProcs(t, []int{4}, func(int) {
		n := 64
		var ran int64
		wantErr := errors.New("boom")
		err := ForEachErr(n, func(i int) error {
			atomic.AddInt64(&ran, 1)
			if i == 0 {
				return wantErr
			}
			return nil
		})
		if !errors.Is(err, wantErr) {
			t.Fatalf("got %v", err)
		}
		if ran != int64(n) {
			t.Fatalf("ran %d of %d despite failure (no short-circuit allowed)", ran, n)
		}
	})
}

// TestForEachRecoversWorkerPanics pins the panic contract: a panicking
// fn(i) surfaces on the caller goroutine as a *WorkerPanic carrying the
// LOWEST panicking index, its original value and the panic-site stack —
// identically at every width — and every other index still runs.
func TestForEachRecoversWorkerPanics(t *testing.T) {
	atProcs(t, []int{1, 4, 16}, func(procs int) {
		n := 50
		var ran int64
		var got *WorkerPanic
		func() {
			defer func() {
				r := recover()
				if r == nil {
					t.Fatalf("GOMAXPROCS=%d: no panic surfaced", procs)
				}
				wp, ok := r.(*WorkerPanic)
				if !ok {
					t.Fatalf("GOMAXPROCS=%d: recovered %T, want *WorkerPanic", procs, r)
				}
				got = wp
			}()
			ForEach(n, func(i int) {
				atomic.AddInt64(&ran, 1)
				if i%11 == 5 {
					panic(fmt.Sprintf("poisoned %d", i))
				}
			})
		}()
		if got.Index != 5 {
			t.Errorf("GOMAXPROCS=%d: surfaced index %d, want the lowest (5)", procs, got.Index)
		}
		if want := "poisoned 5"; got.Value != want {
			t.Errorf("GOMAXPROCS=%d: surfaced value %v, want %q", procs, got.Value, want)
		}
		if len(got.Stack) == 0 {
			t.Errorf("GOMAXPROCS=%d: no captured stack", procs)
		}
		if ran != int64(n) {
			t.Errorf("GOMAXPROCS=%d: ran %d of %d despite panic (no short-circuit allowed)", procs, ran, n)
		}
	})
}

// TestForEachDeterministicSlots exercises the positional-result contract
// under the race detector: concurrent writers each own one slot, and the
// assembled result must equal the sequential one.
func TestForEachDeterministicSlots(t *testing.T) {
	atProcs(t, []int{16}, func(int) {
		n := 500
		got := make([]int, n)
		ForEach(n, func(i int) { got[i] = i * i })
		for i, v := range got {
			if v != i*i {
				t.Fatalf("slot %d = %d", i, v)
			}
		}
	})
}

// TestForEachAscendingStart pins the start-order contract. Sequentially
// the indexes start in order; at any width each fn(i) waits for every
// lower index to start, which returns only if those were taken before i
// by goroutines that will not wait on fn(i) first.
func TestForEachAscendingStart(t *testing.T) {
	atProcs(t, []int{1, 2, 4}, func(procs int) {
		const n = 32
		var started [n]atomic.Bool
		var order []int
		var mu sync.Mutex
		ForEach(n, func(i int) {
			mu.Lock()
			order = append(order, i)
			mu.Unlock()
			started[i].Store(true)
			deadline := time.Now().Add(10 * time.Second)
			for j := 0; j < i; j++ {
				for !started[j].Load() {
					if time.Now().After(deadline) {
						t.Errorf("GOMAXPROCS=%d: fn(%d) started but fn(%d) never did", procs, i, j)
						return
					}
					runtime.Gosched()
				}
			}
		})
		if procs == 1 {
			for k, i := range order {
				if i != k {
					t.Fatalf("GOMAXPROCS=1: start order %v, want ascending", order)
				}
			}
		}
	})
}

// gauge tracks how many counted sections run at once and the most ever.
type gauge struct{ cur, max atomic.Int32 }

func (g *gauge) section() {
	c := g.cur.Add(1)
	for m := g.max.Load(); c > m && !g.max.CompareAndSwap(m, c); m = g.max.Load() {
	}
	time.Sleep(200 * time.Microsecond)
	g.cur.Add(-1)
}

// TestNestedFanOutWithinBudget: however calls nest, one top-level caller
// and its helpers never run more than GOMAXPROCS sections at once, since
// the helper budget is process-wide. Each outer unit runs a section of
// its own and then a nested fan-out of sections. Above GOMAXPROCS 1 the
// fan-out must actually widen, or the bound would be vacuous.
func TestNestedFanOutWithinBudget(t *testing.T) {
	atProcs(t, []int{1, 2, 4}, func(procs int) {
		var g gauge
		ForEach(8, func(int) {
			g.section()
			ForEach(8, func(int) {
				g.section()
				ForEach(2, func(int) { g.section() })
			})
		})
		if got := int(g.max.Load()); got > procs {
			t.Errorf("GOMAXPROCS=%d: %d sections ran at once", procs, got)
		} else if procs > 1 && got < 2 {
			t.Errorf("GOMAXPROCS=%d: the fan-out never ran two sections at once", procs)
		}
		if h := helpers.Load(); h != 0 {
			t.Errorf("GOMAXPROCS=%d: %d helper slots still held after every call returned", procs, h)
		}
	})
}

// TestStragglerGainsReleasedHelper: a call that starts while the budget is
// spent runs inline, and the helper a sibling call releases joins it while
// its first index still runs. At GOMAXPROCS 2 the budget is one helper:
// call A holds it on two blocked indexes; call B then starts, and its
// index 0 can only return once index 1 runs beside it — on A's helper,
// after A is released.
func TestStragglerGainsReleasedHelper(t *testing.T) {
	atProcs(t, []int{2}, func(int) {
		var aStarted sync.WaitGroup
		aStarted.Add(2)
		releaseA := make(chan struct{})
		go ForEach(2, func(int) {
			aStarted.Done()
			<-releaseA
		})
		aStarted.Wait() // both of A's indexes run: the caller and the one helper
		if h := helpers.Load(); h != 1 {
			t.Fatalf("budget at GOMAXPROCS 2 holds %d helpers, want 1", h)
		}
		b0Started, b1Started := make(chan struct{}), make(chan struct{})
		bDone := make(chan bool)
		go func() {
			ok := true
			ForEach(2, func(i int) {
				if i == 1 {
					close(b1Started)
					return
				}
				close(b0Started)
				select {
				case <-b1Started:
				case <-time.After(10 * time.Second):
					ok = false
				}
			})
			bDone <- ok
		}()
		<-b0Started
		close(releaseA)
		if !<-bDone {
			t.Fatal("the call never gained the helper its sibling released")
		}
	})
}
