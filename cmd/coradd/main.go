// Command coradd runs the CORADD designer end to end on a built-in
// benchmark, prints the recommended design — MVs with clustered keys, fact
// re-clustering, correlation maps — and measures it against the commercial
// and naive baselines on the simulated substrate.
//
// Usage:
//
//	coradd [-workload ssb|ssb52|apb] [-rows n] [-budget multiple]
//	       [-feedback n] [-baselines]
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"text/tabwriter"

	"coradd/internal/candgen"
	"coradd/internal/designer"
	"coradd/internal/feedback"
	"coradd/internal/query"
	"coradd/internal/scenario"
	"coradd/internal/scenario/apbenv"
	"coradd/internal/storage"
)

func main() {
	workload := flag.String("workload", "ssb", "ssb | ssb52 | apb")
	rows := flag.Int("rows", 100_000, "fact table rows")
	budgetMult := flag.Float64("budget", 4, "space budget as a multiple of the fact heap size")
	fbIters := flag.Int("feedback", 2, "ILP feedback iterations (-1 disables feedback)")
	baselines := flag.Bool("baselines", true, "also run the Commercial and Naive baselines")
	emitDDL := flag.Bool("ddl", false, "print the design as CREATE statements")
	jsonPath := flag.String("json", "", "write the design as JSON to this file")
	sample := flag.Int("sample", 4096, "statistics synopsis size")
	seed := flag.Int64("seed", 42, "data generation seed")
	flag.Parse()
	if _, err := scenario.SolverMaxNodes(); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}

	s := scenario.Scale{SSBRows: *rows, APBRows: *rows, Sample: *sample, Seed: *seed}
	var env *scenario.Env
	switch strings.ToLower(*workload) {
	case "ssb":
		env = scenario.SSB(s, false)
	case "ssb52":
		env = scenario.SSB(s, true)
	case "apb":
		env = apbenv.New(s)
	default:
		fmt.Fprintf(os.Stderr, "unknown workload %q\n", *workload)
		os.Exit(2)
	}
	rel, w, common := env.Rel, env.W, env.Common
	disk := common.Disk
	budget := int64(*budgetMult * float64(rel.HeapBytes()))

	fmt.Printf("fact table: %s, %d rows, %d pages (%.1f MB heap)\n",
		rel.Name, rel.NumRows(), rel.NumPages(), float64(rel.HeapBytes())/(1<<20))
	fmt.Printf("workload: %d queries; budget: %.1f MB\n\n", len(w), float64(budget)/(1<<20))

	coradd := designer.NewCORADD(common, candgen.DefaultConfig(), feedback.Config{MaxIters: *fbIters})
	design, err := coradd.Design(budget)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	printDesign(rel, design, w)
	if *emitDDL {
		fmt.Println(design.DDL(rel.Schema))
	}
	if *jsonPath != "" {
		f, err := os.Create(*jsonPath)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		if err := design.WriteJSON(f, rel.Schema, w); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		f.Close()
		fmt.Printf("design written to %s\n", *jsonPath)
	}

	ev := designer.NewEvaluator(rel, w, disk)
	res, err := ev.Measure(design)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	fmt.Printf("CORADD:      expected %.3fs   measured %.3fs\n", design.TotalExpected(w), res.Total)

	if *baselines {
		commercial := designer.NewCommercial(common, candgen.DefaultConfig())
		dm, err := commercial.Design(budget)
		if err == nil {
			if rm, err := ev.Measure(dm); err == nil {
				fmt.Printf("Commercial:  expected %.3fs   measured %.3fs   (CORADD speedup %.2fx)\n",
					dm.TotalExpected(w), rm.Total, rm.Total/res.Total)
			}
		}
		naive := designer.NewNaive(common, candgen.DefaultConfig())
		if dn, err := naive.Design(budget); err == nil {
			if rn, err := ev.Measure(dn); err == nil {
				fmt.Printf("Naive:       expected %.3fs   measured %.3fs\n", dn.TotalExpected(w), rn.Total)
			}
		}
	}
}

func printDesign(rel *storage.Relation, d *designer.Design, w query.Workload) {
	fmt.Printf("design (%d objects, %.1f MB):\n", len(d.Chosen), float64(d.Size)/(1<<20))
	tw := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	for _, md := range d.Chosen {
		kind := "mv"
		if md.FactRecluster {
			kind = "fact-recluster"
		}
		fmt.Fprintf(tw, "  %s\t%s\tcols=%d\tkey=(%s)\n",
			md.Name, kind, len(md.Cols), rel.Schema.ColNames(md.ClusterKey))
	}
	tw.Flush()
	fmt.Println("routing:")
	tw = tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	for qi, q := range w {
		target := "base table"
		if r := d.Routing[qi]; r >= 0 {
			target = d.Chosen[r].Name
		}
		fmt.Fprintf(tw, "  %s\t→ %s\t%s\t%.4fs\n", q.Name, target, d.Paths[qi], d.Expected[qi])
	}
	tw.Flush()
	fmt.Println()
}
