package main

import (
	"fmt"
	"io"
	"math/rand"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sort"
	"time"

	"coradd/internal/adapt"
	"coradd/internal/btree"
	"coradd/internal/candgen"
	"coradd/internal/cm"
	"coradd/internal/corridx"
	"coradd/internal/costmodel"
	"coradd/internal/deploy"
	"coradd/internal/designer"
	"coradd/internal/durable"
	"coradd/internal/exec"
	"coradd/internal/exp"
	"coradd/internal/feedback"
	"coradd/internal/ilp"
	"coradd/internal/kmeans"
	"coradd/internal/obs"
	"coradd/internal/query"
	"coradd/internal/ssb"
	"coradd/internal/stats"
	"coradd/internal/storage"
	"coradd/internal/value"
	"coradd/internal/workload"
)

// The per-layer probes time calls into each package's exported functions
// on pinned inputs: two fact tables (fact60k, fact300k), the 52-query
// candidate pool, and the 1× and 2× selection instances built from it.
// The rows are pinned (dataSeed) and --seed draws the synopsis, as in the
// in-process workloads; every workload's traced pass runs the same
// probes, so a layer's number can be read next to any workload.

// medianDur runs f reps times and returns the median duration.
func medianDur(reps int, f func()) time.Duration {
	ds := make([]float64, reps)
	for i := range ds {
		start := time.Now()
		f()
		ds[i] = float64(time.Since(start))
	}
	return time.Duration(median(ds))
}

// perOp runs batches of f(n) until at least 30 ms have been measured
// over at least 3 batches and returns the median batch's nanoseconds
// per operation.
func perOp(n int, f func()) float64 {
	var per []float64
	for start := time.Now(); len(per) < 3 || time.Since(start) < 30*time.Millisecond; {
		t := time.Now()
		f()
		per = append(per, float64(time.Since(t))/float64(n))
	}
	return median(per)
}

// ssbConfig sizes the dimensions the way exp.NewSSBEnv does.
func ssbConfig(rows int, seed int64, chrono bool) ssb.Config {
	return ssb.Config{
		Rows:        rows,
		Customers:   max(1000, rows/30),
		Suppliers:   max(200, rows/400),
		Parts:       max(1000, rows/40),
		Seed:        seed,
		ChronoDates: chrono,
	}
}

func commonFor(st *stats.Stats, w query.Workload) designer.Common {
	return designer.Common{
		St: st, W: w, Disk: storage.DefaultDiskParams(),
		PKCols: ssb.PKCols(st.Rel.Schema), BaseKey: st.Rel.ClusterKey,
		Solve: ilp.SolveOptions{MaxNodes: solverNodeCap},
	}
}

// designOf assembles the Design a feedback/ILP solution describes, the
// way designer.CORADD does after its solve (routing through Reroute).
func designOf(c *designer.Common, model costmodel.Model, budget int64,
	designs []*costmodel.MVDesign, sol *ilp.Solution) *designer.Design {

	d := &designer.Design{Name: "CORADD", Style: designer.StyleCORADD, Budget: budget,
		Base: c.BaseDesign(), Size: sol.Size, SolverNodes: sol.Nodes, SolverProven: sol.Proven}
	for _, ci := range sol.Chosen {
		d.Chosen = append(d.Chosen, designs[ci])
	}
	return designer.Reroute(d, model, c.W)
}

func probeLayers(cfg *runConfig, res *workloadResult) error {
	start := time.Now()
	disk := storage.DefaultDiskParams()
	quick := exp.QuickScale().Cand // what cmd/coraddd and every quick experiment use
	fb := feedback.Config{MaxIters: 1, Solve: ilp.SolveOptions{MaxNodes: solverNodeCap}}

	// --- ssb, stats: fact60k and its synopsis -------------------------
	var rel60 *storage.Relation
	res.layerMS("ssb.generate_ms", 3, func() {
		rel60 = ssb.Generate(ssbConfig(60_000, dataSeed, false))
	})
	var st60 *stats.Stats
	res.layerMS("stats.new_ms", 3, func() {
		st60 = stats.New(rel60, 1024, cfg.seed)
	})
	w52 := ssb.AugmentedQueries()
	res.layer("stats.propagate_us", perOp(len(w52), func() {
		for _, q := range w52 {
			st60.Propagate(st60.SelectivityVector(q))
		}
	})/1e3, len(w52))
	res.layerMS("stats.discover_ms", 3, func() {
		st60.DiscoverCorrelations(stats.DiscoverOptions{})
	})

	// --- kmeans, candgen: the 52-query candidate pool -------------------
	common := commonFor(st60, w52)
	vectors := make([][]float64, len(w52))
	for i, q := range w52 {
		vectors[i] = st60.PropagatedVector(q).Sel
	}
	res.layerMS("kmeans.run_ms", 5, func() {
		kmeans.Run(vectors, 8, rand.New(rand.NewSource(1)), quick.Restarts)
	})
	var model *costmodel.Aware
	var gen *candgen.Generator
	var pool []*costmodel.MVDesign
	res.layerMS("candgen.generate_ms", 3, func() {
		model = costmodel.NewAware(st60, disk)
		gen = candgen.New(st60, model, w52, quick)
		gen.PKCols = common.PKCols
		pool = gen.Generate()
	})
	res.layer("candgen.candidates", float64(len(pool)), 1)

	// --- costmodel: pool × 52 pairs, each on a cold model ---------------
	baseDesign := common.BaseDesign()
	res.layer("costmodel.estimate_ns", perOp(len(pool)*len(w52), func() {
		m := costmodel.NewAware(st60, disk)
		for _, d := range pool {
			for _, q := range w52 {
				m.Estimate(d, q)
			}
		}
	}), len(pool)*len(w52))
	res.layer("costmodel.build_seconds_ns", perOp(len(pool), func() {
		for _, d := range pool {
			costmodel.BuildSeconds(st60, disk, d, nil)
		}
	}), len(pool))
	base := make([]float64, len(w52))
	for qi, q := range w52 {
		base[qi], _ = model.Estimate(baseDesign, q)
	}

	// --- feedback, ilp: the 1× (proven) and 2× (capped) instances -------
	heap := rel60.HeapBytes()
	var prob1, prob2 *ilp.Problem
	var aligned2 []*costmodel.MVDesign
	res.layerMS("feedback.build_problem_ms", 3, func() {
		prob1, _ = feedback.BuildProblem(gen, pool, base, heap)
	})
	prob2, aligned2 = feedback.BuildProblem(gen, pool, base, 2*heap)
	var fb1 *feedback.Result
	res.layerMS("feedback.run_ms", 3, func() {
		fb1 = feedback.Run(gen, pool, base, heap, fb)
	})
	var proven, capped *ilp.Solution
	res.layerMS("ilp.solve_proven_ms", 3, func() {
		proven = ilp.Solve(prob1, fb.Solve)
	})
	res.layer("ilp.nodes_proven", float64(proven.Nodes), 1)
	cappedTook := medianDur(1, func() { capped = ilp.Solve(prob2, fb.Solve) })
	res.layer("ilp.solve_capped_ms", ms(cappedTook), 1)
	res.layer("ilp.nodes_capped", float64(capped.Nodes), 1)
	res.layer("ilp.objective_capped", capped.Objective, 1)
	res.layer("ilp.nodes_per_s", float64(capped.Nodes)/cappedTook.Seconds(), capped.Nodes)
	unproven := 0
	for _, s := range []*ilp.Solution{proven, capped} {
		if !s.Proven {
			unproven++
		}
	}
	res.layer("ilp.unproven_solves", float64(unproven), 2)
	res.layerMS("ilp.greedy_ms", 3, func() { ilp.Greedy(prob2, 2, 0) })
	// λ prices a byte at the base workload's seconds per heap byte: the
	// scale at which the tenant coordinator's dual probes run.
	lambda := prob1.Objective(nil) / float64(heap) / 16
	res.layerMS("ilp.penalized_ms", 3, func() {
		ilp.SolvePenalized(prob1, lambda, fb.Solve)
	})
	for _, s := range []*ilp.Solution{fb1.Sol, capped} {
		if s.Size > 2*heap {
			return fmt.Errorf("probe: a selection of %d bytes exceeds its budget", s.Size)
		}
	}
	design2 := designOf(&common, model, 2*heap, aligned2, capped)

	// --- deploy: migrate a 13-query design to the 52-query one ----------
	common13 := commonFor(st60, ssb.Queries())
	des13 := designer.NewCORADD(common13, quick, fb)
	from13, err := des13.Design(heap)
	if err != nil {
		return err
	}
	var plan *designer.MigrationPlan
	deployTook := medianDur(3, func() {
		plan, err = designer.PlanMigration(st60, disk, w52, model, from13, design2, deploy.Options{})
	})
	if err != nil {
		return err
	}
	res.layer("deploy.solve_ms", ms(deployTook), 3)
	res.layer("deploy.nodes", float64(plan.Nodes), 1)

	// --- designer: routing, and the object cache fitting / not fitting --
	res.layer("designer.route_us", perOp(1, func() { designer.Reroute(design2, model, w52) })/1e3, 1)
	ev := designer.NewEvaluator(rel60, w52, disk)
	var mat2 *designer.Materialized
	res.layerMS("designer.materialize_cold_ms", 1, func() {
		mat2, err = ev.Materialize(design2)
	})
	if err != nil {
		return err
	}
	res.layerMS("designer.materialize_warm_ms", 3, func() {
		_, err = ev.Materialize(design2)
	})
	if err != nil {
		return err
	}
	hits, misses := ev.Cache.Stats()
	res.layer("designer.cache_hit_ratio", ratio(int64(hits), int64(hits+misses)), hits+misses)
	// The default 1 GiB cache holds the whole design (the fits case); a
	// cache of half the heap cannot (the larger-than-cache case), so the
	// second deployment rebuilds what the first one's tail evicted.
	small := designer.NewEvaluator(rel60, w52, disk)
	small.Cache.SetMaxBytes(heap / 2)
	res.layerMS("designer.materialize_smallcache_ms", 2, func() {
		_, err = small.Materialize(design2)
	})
	if err != nil {
		return err
	}
	res.layer("designer.cache_evictions", float64(small.Cache.Snapshot().Evictions), 1)

	// --- exec through the evaluator: the 52 queries on fact60k ----------
	base60, err := ev.Materialize(baseOnly(&common))
	if err != nil {
		return err
	}
	res.layerMS("exec.run_base_ms", 5, func() { _, err = ev.Run(base60) })
	if err != nil {
		return err
	}
	res.layerMS("exec.run_designed_ms", 5, func() { _, err = ev.Run(mat2) })
	if err != nil {
		return err
	}

	if err := probeExecutor(res); err != nil {
		return err
	}
	if err := probeServing(cfg, res, common13, from13); err != nil {
		return err
	}
	cfg.logf("per-layer probes took %.1fs", sec(time.Since(start)))
	return nil
}

// probeExecutor covers storage, btree, cm, corridx and exec on fact300k
// (and a chrono-loaded fact for corridx): builds, probes, and one pinned
// plan of every kind, each checked against the sequential scan's answer.
func probeExecutor(res *workloadResult) error {
	disk := storage.DefaultDiskParams()
	fact := ssb.Generate(ssbConfig(300_000, dataSeed, false))
	sch := fact.Schema
	q11 := ssb.Queries().Find("Q1.1") // year =, discount range, quantity <
	year, discount := sch.MustCol(ssb.ColYear), sch.MustCol(ssb.ColDiscount)
	cols := []int{}
	for _, name := range q11.AllColumns() {
		cols = append(cols, sch.MustCol(name))
	}
	sort.Ints(cols)
	pos := func(c int) int { return sort.SearchInts(cols, c) }

	// --- storage: projection keeping the key order vs a new key (sort) --
	keepKey := append(append([]int{}, fact.ClusterKey...), cols...)
	keyPos := make([]int, len(fact.ClusterKey))
	for i := range keyPos {
		keyPos[i] = i
	}
	res.layerMS("storage.project_ms", 3, func() {
		fact.Project("same-key", keepKey, keyPos)
	})
	var mv *storage.Relation
	res.layerMS("storage.recluster_ms", 3, func() {
		mv = fact.Project("by-year", cols, []int{pos(year)})
	})

	// --- btree ----------------------------------------------------------
	var tree *btree.Tree
	res.layerMS("btree.build_ms", 3, func() {
		tree = btree.BuildFromRelation(fact, []int{discount})
	})
	const probes = 1000
	res.layer("btree.range_ns", perOp(probes, func() {
		for i := range probes {
			v := value.V(i % 8)
			tree.Range([]value.V{v}, []value.V{v + 2})
		}
	}), probes)
	pk := btree.BuildFromRelation(fact, fact.ClusterKey[:1])
	res.layer("btree.lookup_ns", perOp(probes, func() {
		for i := range probes {
			pk.LookupRIDs([]value.V{fact.Rows[(i*7919)%len(fact.Rows)][fact.ClusterKey[0]]})
		}
	}), probes)

	// --- cm: an MV clustered by orderdate, which determines year --------
	orderdate := sch.MustCol(ssb.ColOrderDate)
	dcols := append(append([]int{}, cols...), orderdate)
	sort.Ints(dcols)
	dpos := func(c int) int { return sort.SearchInts(dcols, c) }
	byDate := fact.Project("by-orderdate", dcols, []int{dpos(orderdate)})
	var exact *cm.CM
	res.layerMS("cm.build_ms", 3, func() {
		exact = cm.Build(byDate, []int{dpos(year)}, []value.V{1}, 0)
	})
	res.layerMS("cm.derive_ms", 5, func() { cm.Derive(exact, []value.V{4}) })
	var designed *cm.CM
	res.layerMS("cm.design_ms", 1, func() {
		designed = cm.Design(byDate, q11, cm.DefaultDesignerConfig())
	})
	if designed == nil {
		return fmt.Errorf("probe: the CM designer found no CM for Q1.1 on the orderdate-clustered MV")
	}
	// Buckets takes one predicate per CM key column, in key order.
	preds := make([]*query.Predicate, len(designed.KeyCols))
	for i, c := range designed.KeyCols {
		preds[i] = q11.Predicate(byDate.Schema.Columns[c].Name)
	}
	res.layer("cm.buckets_us", perOp(probes, func() {
		for range probes {
			designed.Buckets(preds)
		}
	})/1e3, probes)

	// --- exec: one pinned plan per kind, ns per scanned row -------------
	baseObj := exec.NewObject(fact)
	ref, err := exec.Execute(baseObj, q11, exec.PlanSpec{Kind: exec.SeqScan})
	if err != nil {
		return err
	}
	pinned := func(metric string, o *exec.Object, want exec.Result, spec exec.PlanSpec) error {
		var got exec.Result
		var err error
		took := medianDur(5, func() { got, err = exec.Execute(o, q11, spec) })
		if err != nil {
			return err
		}
		if got.Sum != want.Sum || got.Rows != want.Rows {
			return fmt.Errorf("probe %s: plan %v answers sum=%d rows=%d, the sequential scan sum=%d rows=%d",
				metric, spec.Kind, got.Sum, got.Rows, want.Sum, want.Rows)
		}
		scanned := max(exec.ScannedRows(o, got), 1)
		res.layer(metric, float64(took.Nanoseconds())/float64(scanned), scanned)
		return nil
	}
	if err := pinned("exec.seqscan_ns_row", baseObj, ref, exec.PlanSpec{Kind: exec.SeqScan}); err != nil {
		return err
	}
	mvObj := exec.NewObject(mv)
	if err := pinned("exec.clustered_ns_row", mvObj, ref, exec.PlanSpec{Kind: exec.ClusteredScan}); err != nil {
		return err
	}
	secObj := exec.NewObject(fact)
	secObj.BTrees = append(secObj.BTrees, &exec.SecondaryIndex{Cols: []int{discount}, Tree: tree})
	if err := pinned("exec.secondary_ns_row", secObj, ref, exec.PlanSpec{Kind: exec.SecondaryScan}); err != nil {
		return err
	}
	cmObj := exec.NewObject(byDate)
	cmObj.AddCM(designed)
	if err := pinned("exec.cm_ns_row", cmObj, ref, exec.PlanSpec{Kind: exec.CMScan}); err != nil {
		return err
	}
	res.layer("exec.best_us", ms(medianDur(3, func() { _, err = exec.Best(cmObj, q11, disk) }))*1e3, 3)
	if err != nil {
		return err
	}
	res.layerMS("exec.build_from_ms", 3, func() {
		exec.BuildFrom(mvObj, "narrower", []int{pos(year), pos(discount)}, []int{1})
	})

	// --- corridx: chrono-loaded fact, orderdate follows the orderkey ----
	chrono := ssb.Generate(ssbConfig(60_000, dataSeed, true))
	csch := chrono.Schema
	var cidx *corridx.Index
	res.layerMS("corridx.build_ms", 3, func() {
		cidx, err = corridx.Build(chrono, csch.MustCol(ssb.ColYear), corridx.DefaultConfig())
	})
	if err != nil {
		return err
	}
	yearPred := q11.Predicate(ssb.ColYear)
	res.layer("corridx.translate_us", perOp(probes, func() {
		for range probes {
			cidx.Translate(yearPred)
		}
	})/1e3, probes)
	chronoObj := exec.NewObject(chrono)
	chronoObj.AddCorrIdx(cidx)
	chronoRef, err := exec.Execute(chronoObj, q11, exec.PlanSpec{Kind: exec.SeqScan})
	if err != nil {
		return err
	}
	if err := pinned("exec.corridx_ns_row", chronoObj, chronoRef, exec.PlanSpec{Kind: exec.CorrIdxScan}); err != nil {
		return err
	}

	return nil
}

// probeServing covers workload, adapt, durable, obs and server, hosted
// in process: the handler through httptest, the controller fed directly.
func probeServing(cfg *runConfig, res *workloadResult, common13 designer.Common, initial *designer.Design) error {
	w52 := ssb.AugmentedQueries()

	// --- workload -------------------------------------------------------
	const n = 2000
	res.layer("workload.fingerprint_ns", perOp(n, func() {
		for i := range n {
			workload.Fingerprint(w52[i%len(w52)])
		}
	}), n)
	clock := 0.0
	mon, err := workload.New(workload.Config{HalfLife: 1e9, MinObserved: 13, DistThreshold: 0.2},
		func() float64 { return clock })
	if err != nil {
		return err
	}
	res.layer("workload.observe_ns", perOp(n, func() {
		for i := range n {
			clock += 0.01
			mon.Observe(w52[i%len(w52)])
		}
	}), n)
	res.layer("workload.drift_us", perOp(100, func() {
		for range 100 {
			mon.Drift()
		}
	})/1e3, 100)

	// --- adapt: daemon-default controller configuration -----------------
	ctl, err := adapt.New(common13, initial, daemonAdaptConfig(initial.Budget, 13))
	if err != nil {
		return err
	}
	base := common13.W
	res.layer("adapt.measure_template_cold_ms", ms(medianDur(1, func() {
		for _, q := range base {
			if _, err = ctl.Process(q); err != nil {
				return
			}
		}
	}))/float64(len(base)), len(base))
	if err != nil {
		return err
	}
	// A fixed, small number of warm rounds: the monitor is undecayed, so
	// every base observation here is one the drifted mix below must
	// outweigh before drift can trigger.
	res.layer("adapt.process_us", ms(medianDur(5, func() {
		for range 4 {
			for _, q := range base {
				if _, perr := ctl.Process(q); perr != nil {
					err = perr
				}
			}
		}
	}))*1e3/float64(4*len(base)), 20*len(base))
	if err != nil {
		return err
	}
	if r := ctl.Report(); r.Redesigns != 0 {
		return fmt.Errorf("probe: the stationary base mix triggered %d redesigns", r.Redesigns)
	}
	// Feed the drifted mix until one Process call redesigns; that call's
	// duration is the redesign (drift report, candidate generation over
	// the monitor's snapshot, solve, migration schedule).
	var redesign time.Duration
	for i := 0; redesign == 0; i++ {
		if i == 20*len(w52) {
			return fmt.Errorf("probe: no redesign within %d drifted observations", i)
		}
		start := time.Now()
		if _, err := ctl.Process(w52[i%len(w52)]); err != nil {
			return err
		}
		if ctl.Report().Redesigns > 0 {
			redesign = time.Since(start)
		}
	}
	res.layer("adapt.redesign_ms", ms(redesign), 1)

	// --- durable: the mid-migration checkpoint --------------------------
	cp, err := durable.Capture(ctl)
	if err != nil {
		return err
	}
	path := filepath.Join(cfg.tmpDir, "probe.checkpoint")
	res.layerMS("durable.save_ms", 5, func() { err = durable.Save(path, cp) })
	if err != nil {
		return err
	}
	res.layerMS("durable.load_ms", 5, func() { _, err = durable.Load(path) })
	if err != nil {
		return err
	}
	info, err := os.Stat(path)
	if err != nil {
		return err
	}
	res.layer("durable.checkpoint_bytes", float64(info.Size()), 1)

	// --- obs ------------------------------------------------------------
	reg := obs.NewRegistry()
	counter := reg.Counter("probe_total", "probe")
	hist := reg.Histogram("probe_seconds", "probe")
	const m = 100_000
	res.layer("obs.counter_inc_ns", perOp(m, func() {
		for range m {
			counter.Inc()
		}
	}), m)
	res.layer("obs.histogram_observe_ns", perOp(m, func() {
		for i := range m {
			hist.Observe(float64(i%1000) * 1e-6)
		}
	}), m)

	// --- server: the handler chain without TCP, then with ---------------
	handler, sreg, stop, err := hostServer(common13, initial)
	if err != nil {
		return err
	}
	defer stop()
	names, docs, err := catalogBodies()
	if err != nil {
		return err
	}
	serve := func(bodies [][]byte) func() {
		return func() {
			for _, b := range bodies {
				if herr := serveOnce(handler, b); herr != nil {
					err = herr
				}
			}
		}
	}
	serve(names)() // price every template once
	handlerNS := perOp(len(names), serve(names))
	res.layer("server.handler_us", handlerNS/1e3, len(names))
	res.layer("server.handler_doc_us", perOp(len(docs), serve(docs))/1e3, len(docs))
	if err != nil {
		return err
	}
	ts := httptest.NewServer(handler)
	c := newClients(1, ts.URL)[0]
	var tcp []float64
	for i := range 1000 {
		t := time.Now()
		if !c.post(names[i%len(names)]) {
			err = fmt.Errorf("probe: request over TCP failed")
		}
		tcp = append(tcp, float64(time.Since(t)))
	}
	c.close()
	ts.Close()
	if err != nil {
		return err
	}
	res.layer("server.tcp_overhead_us", (median(tcp)-handlerNS)/1e3, len(tcp))
	res.layer("obs.expose_us", ms(medianDur(5, func() { err = sreg.WritePrometheus(io.Discard) }))*1e3, 5)
	return err
}
