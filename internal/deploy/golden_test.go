package deploy

import (
	"flag"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"os"
	"strings"
	"testing"

	"coradd/internal/ilp"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/golden_schedule.txt from the current implementation")

// goldenScheduleRows renders one line per (instance, workers, cap) solve
// of seeded instances with precedence edges and build-from shortcuts:
// every Schedule field the search decides plus the sample count and an
// FNV-64a digest of the progress-sample sequence.
func goldenScheduleRows(t *testing.T) string {
	var b strings.Builder
	rng := rand.New(rand.NewSource(20260930))
	for inst := 0; inst < 4; inst++ {
		p := randProblem(rng, 9+inst%3, 6, true)
		for _, workers := range []int{0, 2, 4} {
			for _, maxNodes := range []int{0, 120} {
				h := fnv.New64a()
				samples := 0
				s, err := Solve(p, Options{
					Workers: workers, MaxNodes: maxNodes, ProgressEvery: 32,
					Progress: func(ps ilp.ProgressSample) {
						samples++
						fmt.Fprintf(h, "%s %d %d %d %x %x %d\n", ps.Phase, ps.Nodes, ps.Pruned, ps.Incumbents,
							math.Float64bits(ps.Incumbent), math.Float64bits(ps.Bound), ps.Subtree)
					},
				})
				if err != nil {
					t.Fatal(err)
				}
				fmt.Fprintf(&b, "inst=%d workers=%d cap=%d order=%v cum=%x proven=%t nodes=%d pruned=%d incumbents=%d samples=%d digest=%x\n",
					inst, workers, maxNodes, s.Order, math.Float64bits(s.Cum), s.Proven, s.Nodes, s.Pruned, s.Incumbents,
					samples, h.Sum64())
			}
		}
	}
	return b.String()
}

// TestScheduleGolden is deploy's half of the bit-identity contract (see
// ilp.TestSolveGolden): the table was captured before the scheduling
// search moved onto internal/bnb.
func TestScheduleGolden(t *testing.T) {
	const path = "testdata/golden_schedule.txt"
	got := goldenScheduleRows(t)
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
