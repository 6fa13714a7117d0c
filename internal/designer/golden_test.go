package designer

import (
	"flag"
	"fmt"
	"hash/fnv"
	"math"
	"os"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"coradd/internal/exec"
	"coradd/internal/feedback"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/golden_materialize.txt from the current implementation")

// materializeOutcome is everything a deployment decides, per design.
type materializeOutcome struct {
	Specs [][]exec.PlanSpec
	Bytes []int64
	Runs  []*RunResult
	// Hits and Misses are the cache's counters after the last design.
	Hits, Misses int
	Table        string
}

// goldenDesigns solves the designs the golden table deploys: CORADD at a
// tight, an even and a generous budget, and the commercial designer's
// B+Tree-carrying design.
func goldenDesigns(t *testing.T) (*Evaluator, []*Design) {
	t.Helper()
	rel, _, c := smallSSB(t, 60000)
	coradd := NewCORADD(c, smallCandCfg(), feedback.Config{MaxIters: 1})
	commercial := NewCommercial(c, smallCandCfg())
	var designs []*Design
	for _, mult := range []float64{0.5, 1, 4} {
		d, err := coradd.Design(int64(mult * float64(rel.HeapBytes())))
		if err != nil {
			t.Fatal(err)
		}
		designs = append(designs, d)
	}
	d, err := commercial.Design(2 * rel.HeapBytes())
	if err != nil {
		t.Fatal(err)
	}
	designs = append(designs, d)
	ev := NewEvaluator(rel, c.W, c.Disk)
	ev.Commercial = commercial
	return ev, designs
}

// deployAll materializes and runs designs on a fresh cache at the given
// GOMAXPROCS, which sets how wide every fan-out of the build runs. The table renders floats by bit pattern and digests every
// built relation's rows in heap order, so a stability slip in a recluster,
// a moved CM pair or a different B+Tree size all show.
func deployAll(t *testing.T, ev *Evaluator, designs []*Design, procs int) materializeOutcome {
	t.Helper()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
	ev.Cache = NewObjectCache()
	var out materializeOutcome
	var b strings.Builder
	for di, d := range designs {
		m, err := ev.Materialize(d)
		if err != nil {
			t.Fatal(err)
		}
		r, err := ev.Run(m)
		if err != nil {
			t.Fatal(err)
		}
		specs := make([]exec.PlanSpec, len(m.Plan))
		fmt.Fprintf(&b, "design %d style=%d: objects=%d bytes=%d total=%x\n", di, d.Style, len(m.Objects), m.Bytes, math.Float64bits(r.Total))
		for i, o := range m.Objects {
			h := fnv.New64a()
			for r := range o.Rel.NumRows() {
				fmt.Fprintln(h, o.Rel.Row(r))
			}
			fmt.Fprintf(&b, "  object %d %s bytes=%d rows=%x btrees=%d", i, o.Rel.Name, o.Bytes(), h.Sum64(), len(o.BTrees))
			for _, cm := range o.CMs {
				fmt.Fprintf(&b, " cm%v/%v=%d", cm.KeyCols, cm.KeyWidths, cm.NumPairs())
			}
			b.WriteByte('\n')
		}
		for qi, q := range ev.W {
			specs[qi] = m.Plan[qi].Spec
			fmt.Fprintf(&b, "  %s on %s: %+v sec=%x sum=%d\n", q.Name, m.Plan[qi].Object.Rel.Name, specs[qi], math.Float64bits(r.PerQuery[qi]), r.Sums[qi])
		}
		out.Specs = append(out.Specs, specs)
		out.Bytes = append(out.Bytes, m.Bytes)
		out.Runs = append(out.Runs, r)
	}
	out.Hits, out.Misses = ev.Cache.Stats()
	out.Table = b.String()
	return out
}

// TestMaterializeGolden is the bit-identity contract of the build kernels:
// the table in testdata was captured with the row-at-a-time stable-sort
// recluster, the globally sorted CM collector and sequential object builds,
// and no change to how objects are built may move a bit of it. The same
// designs deployed at GOMAXPROCS 4 must decide the same, and touch the
// cache exactly as often: a wait for a build in flight is a hit, and every
// artifact is built — missed — once.
func TestMaterializeGolden(t *testing.T) {
	const path = "testdata/golden_materialize.txt"
	ev, designs := goldenDesigns(t)
	seq := deployAll(t, ev, designs, 1)
	if *updateGolden {
		if err := os.WriteFile(path, []byte(seq.Table), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	gotLines, wantLines := strings.Split(seq.Table, "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(gotLines) && i < len(wantLines); i++ {
		if gotLines[i] != wantLines[i] {
			t.Fatalf("row %d moved:\n got  %s\n want %s", i, gotLines[i], wantLines[i])
		}
	}
	if len(gotLines) != len(wantLines) {
		t.Fatalf("golden table has %d rows, got %d", len(wantLines), len(gotLines))
	}

	fanned := deployAll(t, ev, designs, 4)
	if !reflect.DeepEqual(fanned, seq) {
		t.Errorf("GOMAXPROCS=4 decided differently: hits/misses %d/%d vs %d/%d sequential, tables equal: %t",
			fanned.Hits, fanned.Misses, seq.Hits, seq.Misses, fanned.Table == seq.Table)
	}
}
