package bnb

import (
	"math/rand"
	"testing"
	"time"
)

// toy is the smallest problem that exercises every driver entry point:
// item i costs a[i] when taken and b[i] when left, the optimum is the sum
// of per-item minima, and the bound is exactly that sum over the undecided
// suffix. weak drops the bound to zero so the search visits the whole
// tree (the limit tests need nodes to burn).
type toy struct {
	Search
	a, b   []float64
	suffix []float64 // suffix[i] = Σ_{j≥i} min(a[j], b[j])
	weak   bool

	take     []bool
	bestTake []bool
}

func newToy(seed int64, n int, weak bool) *toy {
	rng := rand.New(rand.NewSource(seed))
	t := &toy{a: make([]float64, n), b: make([]float64, n), suffix: make([]float64, n+1), weak: weak}
	for i := range t.a {
		t.a[i], t.b[i] = 1+rng.Float64(), 1+rng.Float64()
	}
	for i := n - 1; i >= 0; i-- {
		t.suffix[i] = t.suffix[i+1] + min(t.a[i], t.b[i])
	}
	return t
}

// worst is the all-max assignment's value: a valid, deliberately poor
// starting incumbent.
func (t *toy) worst() float64 {
	v := 0.0
	for i := range t.a {
		v += max(t.a[i], t.b[i])
	}
	return v
}

func (t *toy) dfs(pos int, cur float64) {
	if !t.Enter() {
		return
	}
	if pos == len(t.a) {
		if t.Adopt(cur) {
			t.bestTake = append([]bool(nil), t.take...)
		}
		return
	}
	bound := cur
	if !t.weak {
		bound += t.suffix[pos]
	}
	if t.Cut(bound) {
		return
	}
	t.take = append(t.take, true)
	t.dfs(pos+1, cur+t.a[pos])
	t.take[pos] = false
	t.dfs(pos+1, cur+t.b[pos])
	t.take = t.take[:pos]
}

// solve runs the toy's depth-first search under l.
func (t *toy) solve(l Limits, defaultMaxNodes int) {
	t.Search = New(l, defaultMaxNodes, t.worst())
	t.Root(func() float64 { return t.suffix[0] })
	t.dfs(0, 0)
	t.Final()
}

// TestLimitsCutSearchKeepIncumbent: every limit — node cap (explicit and
// the problem's default), wall-clock deadline, interrupt predicate — stops
// the search with Proven=false and the best assignment found so far
// intact; without a binding limit the same search proves the optimum. The
// interrupt is polled once per node with the running count (the contract
// internal/fault's replayable solve deadlines rely on).
func TestLimitsCutSearchKeepIncumbent(t *testing.T) {
	const n = 14 // 2^15−1 nodes under the weak bound: past the 1024-node deadline poll
	polled := 0
	cases := []struct {
		name       string
		limits     Limits
		defaultCap int
		proven     bool
	}{
		{"unlimited", Limits{MaxNodes: -1}, 10, true},
		{"default cap binds", Limits{}, 500, false},
		{"default cap slack", Limits{}, 1 << 20, true},
		{"explicit cap", Limits{MaxNodes: 500}, 1 << 20, false},
		{"deadline", Limits{MaxNodes: -1, TimeLimit: time.Nanosecond}, 10, false},
		{"interrupt", Limits{MaxNodes: -1, Interrupt: func(nodes int) bool {
			if polled++; nodes != polled {
				t.Errorf("interrupt poll %d saw node count %d", polled, nodes)
			}
			return nodes >= 500
		}}, 10, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			p := newToy(1, n, true)
			p.solve(tc.limits, tc.defaultCap)
			if p.Proven != tc.proven {
				t.Fatalf("Proven=%v, want %v (nodes %d)", p.Proven, tc.proven, p.Nodes)
			}
			if p.Incumbents == 0 || p.bestTake == nil {
				t.Fatalf("no incumbent adopted in %d nodes", p.Nodes)
			}
			got := 0.0 // re-price the kept assignment: it must be the one behind Best
			for i, on := range p.bestTake {
				if on {
					got += p.a[i]
				} else {
					got += p.b[i]
				}
			}
			if got != p.Best {
				t.Fatalf("kept assignment is worth %v, Search.Best says %v", got, p.Best)
			}
			if tc.proven && p.Best != p.suffix[0] {
				t.Fatalf("proven value %v, optimum %v", p.Best, p.suffix[0])
			}
			if !tc.proven && p.Best < p.suffix[0] {
				t.Fatalf("cut search reports %v, below the optimum %v", p.Best, p.suffix[0])
			}
		})
	}
}
