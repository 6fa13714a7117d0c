package ilp

import (
	"flag"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"os"
	"strings"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/golden_solve.txt from the current implementation")

// goldenSolveRows renders one line per (instance, warm, cap)
// solve: every Solution field the search decides plus the sample count and
// an FNV-64a digest of the full progress-sample sequence (floats by bit
// pattern). Instances are seeded hardRandomProblem draws — fact groups in
// all of them — at tight budgets (even instances) and slack ones (odd).
func goldenSolveRows() string {
	var b strings.Builder
	rng := rand.New(rand.NewSource(20260930))
	for inst := 0; inst < 8; inst++ {
		p := hardRandomProblem(rng, 26+rng.Intn(12), 10+rng.Intn(5))
		if inst%2 == 1 {
			p.Budget *= 3
		}
		// The warm set is the greedy design with its first member replaced
		// by candidate 0: feasible or not, it is clipped the same way.
		warm := append([]int{0}, Greedy(p, 1, 0).Chosen...)
		for _, ws := range [][]int{nil, warm} {
			for _, maxNodes := range []int{0, 150} {
				h := fnv.New64a()
				samples := 0
				sol := Solve(p, SolveOptions{
					WarmStart: ws, MaxNodes: maxNodes, ProgressEvery: 32,
					Progress: func(ps ProgressSample) {
						samples++
						fmt.Fprintf(h, "%s %d %d %d %x %x\n", ps.Phase, ps.Nodes, ps.Pruned, ps.Incumbents,
							math.Float64bits(ps.Incumbent), math.Float64bits(ps.Bound))
					},
				})
				fmt.Fprintf(&b, "inst=%d warm=%t cap=%d chosen=%v obj=%x size=%d proven=%t nodes=%d pruned=%d incumbents=%d samples=%d digest=%x\n",
					inst, ws != nil, maxNodes, sol.Chosen, math.Float64bits(sol.Objective), sol.Size,
					sol.Proven, sol.Nodes, sol.Pruned, sol.IncumbentUpdates, samples, h.Sum64())
			}
		}
	}
	return b.String()
}

// TestSolveGolden is the bit-identity contract of the solver: the table in
// testdata was captured before the search moved onto internal/bnb, and no
// refactor of the driver may move a single bit of it — warm or cold,
// proven or cut by the node cap.
func TestSolveGolden(t *testing.T) {
	const path = "testdata/golden_solve.txt"
	got := goldenSolveRows()
	if *updateGolden {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	gotLines, wantLines := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(gotLines) && i < len(wantLines); i++ {
		if gotLines[i] != wantLines[i] {
			t.Fatalf("row %d moved:\n got  %s\n want %s", i, gotLines[i], wantLines[i])
		}
	}
	if len(gotLines) != len(wantLines) {
		t.Fatalf("golden table has %d rows, got %d", len(wantLines), len(gotLines))
	}
}
