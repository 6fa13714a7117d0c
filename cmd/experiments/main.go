// Command experiments regenerates every table and figure of the paper's
// evaluation on the simulated substrate and prints them in paper-style
// rows. See EXPERIMENTS.md for the paper-vs-measured record.
//
// Usage:
//
//	experiments [-full] [-chrono] [-run id] [-ssbrows n] [-apbrows n]
//
// where id selects one experiment: table1, fig5, fig6, fig7, fig9, fig10,
// fig11, fig13, fig14, a3, relax, merge, cidx, deploy, adapt, chaos,
// serving, tenant, calib, all (default all).
//
// Flags:
//
//	-full     the larger paper-like scale (slower)
//	-solveprof  with the calib experiment: dump every selection and
//	          scheduling solve's search-progress profile (incumbent
//	          trajectory and bound gap, sampled at deterministic node
//	          ordinals — see ilp.SolveProfile) after the table
//	-chrono   chronologically loaded SSB for every SSB experiment
//	          (orderdate nearly monotone in the orderkey clustering — the
//	          load-order correlation scenario the cidx ablation
//	          introduced; promoted to a first-class switch in PR 4)
//	-ssbrows / -apbrows  fact-table row overrides
//
// Environment:
//
//	CORADD_SOLVER_MAXNODES  branch-and-bound node cap per exact solve
//	                        (0/unset = the 5M default, negative =
//	                        unlimited — for running the Figure 9/11
//	                        mid-budget instances to proven optimality
//	                        alongside -full). Anything but a base-10
//	                        integer is rejected at startup.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"coradd/internal/exp"
	"coradd/internal/ilp"
	"coradd/internal/scenario"
	"coradd/internal/scenario/apbenv"
)

func main() {
	full := flag.Bool("full", false, "use the larger paper-like scale (slower)")
	chrono := flag.Bool("chrono", false, "chronologically loaded SSB (load-order correlation scenario)")
	run := flag.String("run", "all", "experiment id: table1,fig5,fig6,fig7,fig9,fig10,fig11,fig13,fig14,a3,relax,merge,cidx,deploy,adapt,chaos,serving,tenant,calib,all")
	ssbRows := flag.Int("ssbrows", 0, "override SSB fact rows")
	apbRows := flag.Int("apbrows", 0, "override APB fact rows")
	optQueries := flag.Int("optqueries", 8, "workload size for the Figure 7 OPT brute force")
	solveProf := flag.Bool("solveprof", false, "dump the solver search profile after the calib experiment")
	flag.Parse()
	if _, err := scenario.SolverMaxNodes(); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}

	scale := scenario.QuickScale()
	if *full {
		scale = scenario.FullScale()
	}
	if *ssbRows > 0 {
		scale.SSBRows = *ssbRows
	}
	if *apbRows > 0 {
		scale.APBRows = *apbRows
	}
	scale.ChronoSSB = *chrono

	want := func(id string) bool { return *run == "all" || strings.EqualFold(*run, id) }
	out := os.Stdout

	var ssbEnv, ssbAugEnv, apbEnv *scenario.Env
	getSSB := func() *scenario.Env {
		if ssbEnv == nil {
			ssbEnv = scenario.SSB(scale, false)
		}
		return ssbEnv
	}
	getSSBAug := func() *scenario.Env {
		if ssbAugEnv == nil {
			ssbAugEnv = scenario.SSB(scale, true)
		}
		return ssbAugEnv
	}
	getAPB := func() *scenario.Env {
		if apbEnv == nil {
			apbEnv = apbenv.New(scale)
		}
		return apbEnv
	}

	step := func(id string, f func() error) {
		if !want(id) {
			return
		}
		start := time.Now()
		if err := f(); err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", id, err)
			os.Exit(1)
		}
		fmt.Fprintf(out, "(%s finished in %.1fs)\n\n", id, time.Since(start).Seconds())
		// Release this phase's materialized objects: the next experiment
		// rebuilds what it needs, so a full -run all sweep never holds
		// every phase's working set at once.
		for _, env := range []*scenario.Env{ssbEnv, ssbAugEnv, apbEnv} {
			if env != nil {
				env.FlushCaches()
			}
		}
	}

	step("table1", func() error {
		_, t1, t2 := exp.SelectivityVectors(getSSB())
		t1.Print(out)
		t2.Print(out)
		return nil
	})
	step("fig5", func() error {
		_, t := exp.ILPVersusGreedy(getSSB())
		t.Print(out)
		return nil
	})
	step("fig6", func() error {
		sizes := []int{1000, 2500, 5000, 10000, 20000}
		if !*full {
			sizes = []int{1000, 2500, 5000}
		}
		_, t := exp.ILPSolverScaling(sizes, 52, scale.Seed)
		t.Print(out)
		return nil
	})
	step("fig7", func() error {
		_, t, err := exp.FeedbackVersusOPT(getSSB(), *optQueries)
		if err != nil {
			return err
		}
		t.Print(out)
		return nil
	})
	step("fig9", func() error {
		_, t, err := exp.APBComparison(getAPB())
		if err != nil {
			return err
		}
		t.Print(out)
		return nil
	})
	step("fig10", func() error {
		_, t := exp.CostModelError(getSSB())
		t.Print(out)
		return nil
	})
	step("fig11", func() error {
		_, t, err := exp.SSBComparison(getSSBAug())
		if err != nil {
			return err
		}
		t.Print(out)
		return nil
	})
	step("fig13", func() error {
		_, t := exp.AccessPatternGap(getSSB())
		t.Print(out)
		return nil
	})
	step("fig14", func() error {
		_, t := exp.MaintenanceCost(exp.DefaultMaintenanceConfig())
		t.Print(out)
		return nil
	})
	step("a3", func() error {
		_, t := exp.UpdateCostCMvsBTree(exp.DefaultUpdateCostConfig())
		t.Print(out)
		return nil
	})
	step("relax", func() error {
		_, t := exp.RelaxationError(getSSB(), 40)
		t.Print(out)
		return nil
	})
	step("merge", func() error {
		_, t := exp.MergeAblation(getSSB())
		t.Print(out)
		return nil
	})
	step("cidx", func() error {
		_, t, err := exp.CorrIdxAblation(scale)
		if err != nil {
			return err
		}
		t.Print(out)
		return nil
	})
	step("deploy", func() error {
		_, t, err := exp.DeployAblation(scale)
		if err != nil {
			return err
		}
		t.Print(out)
		return nil
	})
	step("adapt", func() error {
		_, t, err := exp.AdaptAblation(scale)
		if err != nil {
			return err
		}
		t.Print(out)
		return nil
	})
	step("chaos", func() error {
		_, t, err := exp.ChaosAblation(scale)
		if err != nil {
			return err
		}
		t.Print(out)
		return nil
	})
	step("serving", func() error {
		_, t, err := exp.ServingLatency(scale)
		if err != nil {
			return err
		}
		t.Print(out)
		return nil
	})
	step("tenant", func() error {
		_, t, err := exp.TenantAblation(scale)
		if err != nil {
			return err
		}
		t.Print(out)
		return nil
	})
	step("calib", func() error {
		var prof *ilp.SolveProfile
		if *solveProf {
			prof = &ilp.SolveProfile{Label: "calib"}
		}
		_, t, err := exp.AdaptCalibration(scale, prof)
		if err != nil {
			return err
		}
		t.Print(out)
		if prof != nil {
			fmt.Fprintln(out, prof.String())
		}
		return nil
	})
}
