package main

import (
	"fmt"
	"io"
	"sort"
	"text/tabwriter"
)

// verdict of one (workload, end-to-end metric) pairing.
const (
	verdictOK         = "ok"
	verdictRegressed  = "regressed"
	verdictUnresolved = "unresolved"
)

// series is one metric's values over the runs of one side.
type series struct {
	def    metricValue // unit, direction and bounds, from the first run
	values []float64
}

// collect groups a result file's untraced runs by workload and metric.
func collect(f *resultFile) map[string]map[string]*series {
	out := map[string]map[string]*series{}
	for _, r := range f.Runs {
		if r.Traced {
			continue
		}
		if out[r.Workload] == nil {
			out[r.Workload] = map[string]*series{}
		}
		for name, v := range r.EndToEnd {
			s := out[r.Workload][name]
			if s == nil {
				s = &series{def: v}
				out[r.Workload][name] = s
			}
			s.values = append(s.values, v.Value)
		}
	}
	return out
}

// printMedians summarises repeated runs: per workload and end-to-end
// metric, the median over the runs and their quartile spread.
func printMedians(w io.Writer, f *resultFile) {
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tunit\tmedian\truns\tspread")
	byWorkload := collect(f)
	for _, wl := range workloads {
		for _, def := range endToEnd {
			if s := byWorkload[wl.name][def.Name]; s != nil {
				fmt.Fprintf(tw, "%s\t%s\t%s\t%.6g\t%d\t%.1f%%\n", wl.name, def.Name, s.def.Unit,
					median(s.values), len(s.values), 100*quartileSpread(s.values))
			}
		}
	}
	tw.Flush()
}

// judge compares change against base for one metric. The worsening is
// taken in the metric's own direction; it is a share of the base median,
// or an absolute difference for metrics bounded absolutely. Where either
// side's run-to-run spread is wider than the bound the medians cannot
// resolve a difference of that size: the verdict is then "unresolved",
// unless every run of the change beats every run of the base.
func judge(def metricValue, base, change []float64) (verdict string, worsening, spread float64) {
	mb, mc := median(base), median(change)
	sign := 1.0
	if def.Better == "higher" {
		sign = -1
	}
	bound := def.Bound
	worsening = sign * (mc - mb)
	if def.AbsBound > 0 {
		bound = def.AbsBound
		spread = max(quartileWidth(base), quartileWidth(change))
	} else {
		if mb != 0 {
			worsening /= abs(mb)
		}
		spread = max(quartileSpread(base), quartileSpread(change))
	}
	if spread > bound {
		if allBetter(def.Better, change, base) {
			return verdictOK, worsening, spread
		}
		return verdictUnresolved, worsening, spread
	}
	if worsening > bound {
		return verdictRegressed, worsening, spread
	}
	return verdictOK, worsening, spread
}

// quartileWidth is the absolute distance between the quartiles.
func quartileWidth(vs []float64) float64 {
	return quartileSpread(vs) * abs(median(vs))
}

// allBetter reports whether every value of a is strictly better than
// every value of b.
func allBetter(better string, a, b []float64) bool {
	if len(a) == 0 || len(b) == 0 {
		return false
	}
	sa := append([]float64(nil), a...)
	sb := append([]float64(nil), b...)
	sort.Float64s(sa)
	sort.Float64s(sb)
	if better == "higher" {
		return sa[0] > sb[len(sb)-1]
	}
	return sa[len(sa)-1] < sb[0]
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

// compareFiles prints one row per (workload, end-to-end metric) present
// on both sides and returns the exit code: 1 on any regression or on a
// higher fail_ratio.
func compareFiles(w io.Writer, pathA, pathB string) int {
	a, err := readResultFile(pathA)
	if err != nil {
		fmt.Fprintln(w, "bench:", err)
		return 2
	}
	b, err := readResultFile(pathB)
	if err != nil {
		fmt.Fprintln(w, "bench:", err)
		return 2
	}
	return compareResults(w, a, b)
}

func compareResults(w io.Writer, a, b *resultFile) int {
	if a.Environment.NProc != b.Environment.NProc || a.Environment.GoVersion != b.Environment.GoVersion ||
		a.Seconds != b.Seconds {
		fmt.Fprintf(w, "warning: environments differ (nproc %d vs %d, %s vs %s, run length %gs vs %gs): timings are not comparable\n",
			a.Environment.NProc, b.Environment.NProc, a.Environment.GoVersion, b.Environment.GoVersion, a.Seconds, b.Seconds)
	}
	fmt.Fprintf(w, "base   %s seed %d\nchange %s seed %d\n", a.Environment.Commit, a.Seed, b.Environment.Commit, b.Seed)
	ca, cb := collect(a), collect(b)
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tunit\tbase median (n)\tchange median (n)\tchange/base\tworsening\tspread\tbound\tverdict")
	exit := 0
	for _, wl := range workloads {
		for _, def := range endToEnd {
			sa, sb := ca[wl.name][def.Name], cb[wl.name][def.Name]
			if sa == nil || sb == nil {
				continue
			}
			verdict, worsening, spread := judge(sa.def, sa.values, sb.values)
			ma, mb := median(sa.values), median(sb.values)
			ratioCol := "-"
			if ma != 0 {
				ratioCol = fmt.Sprintf("%.3f of %.4g", mb/ma, ma)
			}
			var worse, spreadCol, boundCol string
			if sa.def.AbsBound > 0 {
				worse, spreadCol, boundCol = fmt.Sprintf("%+.4g abs", worsening), fmt.Sprintf("%.4g abs", spread), fmt.Sprintf("+%g abs", sa.def.AbsBound)
			} else {
				worse, spreadCol, boundCol = fmt.Sprintf("%+.1f%%", worsening*100), fmt.Sprintf("%.1f%%", spread*100), fmt.Sprintf("%g%%", sa.def.Bound*100)
			}
			if sa.def.Exact && a.Seed == b.Seed && ma != mb {
				verdict += " (exact value differs)"
			}
			if def.Name == "fail_ratio" && mb > ma {
				verdict = verdictRegressed
			}
			if verdict == verdictRegressed {
				exit = 1
			}
			fmt.Fprintf(tw, "%s\t%s\t%s\t%.6g (%d)\t%.6g (%d)\t%s\t%s\t%s\t%s\t%s\n",
				wl.name, def.Name, sa.def.Unit, ma, len(sa.values), mb, len(sb.values), ratioCol, worse, spreadCol, boundCol, verdict)
		}
	}
	tw.Flush()
	return exit
}
