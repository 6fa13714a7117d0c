package main

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"time"

	"coradd/internal/adapt"
	"coradd/internal/candgen"
	"coradd/internal/costmodel"
	"coradd/internal/designer"
	"coradd/internal/durable"
	"coradd/internal/exp"
	"coradd/internal/feedback"
	"coradd/internal/obs"
	"coradd/internal/query"
	"coradd/internal/server"
	"coradd/internal/ssb"
	"coradd/internal/stats"
	"coradd/internal/storage"
	"coradd/internal/workload"
)

// The traced pass replays each workload's pipeline from the harness,
// calling the layers' exported functions directly so that every layer
// call gets a span. Spans inside the packages are a later issue.

// tracedEnv is newEnv with a span per layer.
func tracedEnv(tr *tracer, parent int, synopsisSeed int64, rows int, augmented bool) *exp.Env {
	s := exp.QuickScale()
	s.Seed, s.SSBRows = dataSeed, rows
	var rel *storage.Relation
	tr.do(parent, "ssb.generate", func(int) { rel = ssb.Generate(ssbConfig(rows, dataSeed, false)) })
	var st *stats.Stats
	tr.do(parent, "stats.new", func(int) { st = stats.New(rel, s.Sample, synopsisSeed) })
	w := ssb.Queries()
	if augmented {
		w = ssb.AugmentedQueries()
	}
	return &exp.Env{Rel: rel, St: st, W: w, Scale: s, Common: commonFor(st, w)}
}

// tracedMeasure materializes and runs the designs under spans, checks
// the answers against the fact table's, and returns the materialized
// designs (the base-only one first).
func tracedMeasure(tr *tracer, parent int, env *exp.Env, designs []*designer.Design, rounds int) error {
	ev := designer.NewEvaluator(env.Rel, env.W, env.Common.Disk)
	var mats []*designer.Materialized
	var err error
	for _, d := range append([]*designer.Design{baseOnly(&env.Common)}, designs...) {
		tr.do(parent, "designer.materialize", func(int) {
			var m *designer.Materialized
			if m, err = ev.Materialize(d); err == nil {
				mats = append(mats, m)
			}
		})
		if err != nil {
			return err
		}
	}
	if err := sameSums(ev, mats); err != nil {
		return err
	}
	for range rounds {
		for _, m := range mats {
			tr.do(parent, "designer.run", func(int) { _, err = ev.Run(m) })
			if err != nil {
				return err
			}
		}
	}
	return nil
}

// traceDesignSSB52 decomposes designer.NewCORADD / Design into the calls
// they make — cost model, candidate generation, base pricing, one
// feedback.Run per budget, routing — so each gets its own span.
func traceDesignSSB52(cfg *runConfig, tr *tracer, res *workloadResult) error {
	var err error
	tr.do(0, "design_ssb52", func(root int) {
		env := tracedEnv(tr, root, cfg.seed, 60_000, true)
		c := &env.Common
		var designs []*designer.Design
		pass := tr.do(root, "design_pass", func(pass int) {
			var model *costmodel.Aware
			tr.do(pass, "costmodel.new_aware", func(int) { model = costmodel.NewAware(c.St, c.Disk) })
			var gen *candgen.Generator
			var pool []*costmodel.MVDesign
			tr.do(pass, "candgen.generate", func(int) {
				gen = candgen.New(c.St, model, c.W, env.Scale.Cand)
				gen.PKCols = c.PKCols
				pool = gen.Generate()
			})
			base := make([]float64, len(c.W))
			tr.do(pass, "costmodel.estimate", func(int) {
				for qi, q := range c.W {
					base[qi], _ = model.Estimate(c.BaseDesign(), q)
				}
			})
			fb := env.Scale.FB
			fb.Solve = c.Solve
			for _, budget := range budgetsOf(env, designBudgets) {
				var fr *feedback.Result
				tr.do(pass, "feedback.run", func(int) { fr = feedback.Run(gen, pool, base, budget, fb) })
				tr.do(pass, "designer.route", func(int) {
					designs = append(designs, designOf(c, model, budget, fr.Designs, fr.Sol))
				})
			}
		})
		for _, d := range designs {
			if d.Size > d.Budget {
				err = fmt.Errorf("design at budget %d has size %d", d.Budget, d.Size)
				return
			}
		}
		by := totalByName(tr.spans)
		share := float64(by["feedback.run"]+by["candgen.generate"]) / float64(pass)
		cfg.logf("design_ssb52 traced: design pass %.2fs, feedback.run + candgen.generate spans are %.1f%% of it", sec(pass), 100*share)
		tr.do(root, "quality_check", func(id int) { err = tracedMeasure(tr, id, env, designs, 3) })
	})
	if err == nil {
		res.check("traced designs fit their budgets and answer every query as the fact table does")
	}
	return err
}

// traceBuildExecSSB13 keeps the product's designer calls (they are under
// 1% of this workload) and spans every build and every run.
func traceBuildExecSSB13(cfg *runConfig, tr *tracer, res *workloadResult) error {
	var err error
	tr.do(0, "build_exec_ssb13", func(root int) {
		env := tracedEnv(tr, root, cfg.seed, 300_000, false)
		var des *designer.CORADD
		tr.do(root, "designer.new_coradd", func(int) {
			des = designer.NewCORADD(env.Common, env.Scale.Cand, env.Scale.FB)
		})
		var designs []*designer.Design
		for _, budget := range budgetsOf(env, buildBudgets) {
			tr.do(root, "designer.design", func(int) {
				var d *designer.Design
				if d, err = des.Design(budget); err == nil {
					designs = append(designs, d)
				}
			})
			if err != nil {
				return
			}
		}
		err = tracedMeasure(tr, root, env, designs, 10)
	})
	if err == nil {
		res.check("traced designs answer every query as the fact table does")
	}
	return err
}

// daemonAdaptConfig is the controller configuration cmd/coraddd builds
// from its default flags.
func daemonAdaptConfig(budget int64, minObserved int) adapt.Config {
	return adapt.Config{
		Budget: budget,
		Cand:   exp.QuickScale().Cand,
		FB:     feedback.Config{MaxIters: 1},
		Monitor: workload.Config{
			HalfLife:      1e9,
			MinObserved:   minObserved,
			DistThreshold: 0.2,
		},
		CheckEvery: 13,
	}
}

// hostServer runs a server.Server in process with the daemon's default
// controller configuration but drift detection parked (its controller
// only observes), and returns its handler, its metrics registry and the
// function that drains it.
func hostServer(common designer.Common, initial *designer.Design) (http.Handler, *obs.Registry, func(), error) {
	reg := obs.NewRegistry()
	srv := server.NewStarting(server.Config{
		Adapt:          daemonAdaptConfig(initial.Budget, 1_000_000_000),
		Metrics:        reg,
		RequestTimeout: 5 * time.Second,
	})
	ctl, err := adapt.New(common, initial, srv.AdaptConfig())
	if err != nil {
		return nil, nil, nil, err
	}
	srv.Attach(common, ctl)
	if err := srv.Start(); err != nil {
		return nil, nil, nil, err
	}
	stop := func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		srv.Shutdown(ctx) // a drain error only means the deadline passed; the process is about to exit
	}
	return srv.Handler(), reg, stop, nil
}

// serveOnce posts one /query body through the handler chain without TCP.
func serveOnce(handler http.Handler, body []byte) error {
	rec := httptest.NewRecorder()
	handler.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/query", bytes.NewReader(body)))
	if rec.Code != http.StatusOK {
		return fmt.Errorf("handler answered %d to %s", rec.Code, body)
	}
	return nil
}

// traceServing hosts server.Server and adapt.Controller in process, as
// exp.ServingLatency does, so the handler, Process and the checkpoint
// write get spans: every body goes through the handler chain (drift
// detection parked, so the server's own controller only observes), and
// every query of the stream through a harness-owned controller with the
// checkpoint cadence of server.loop — on structural change and every 64
// observations.
func traceServing(cfg *runConfig, tr *tracer, root int, rows int, bodies [][]byte, stream, drifted []*query.Query, minObserved int) error {
	env := tracedEnv(tr, root, dataSeed+1, rows, false) // the daemon draws its synopsis with seed+1
	budget := 2 * env.Rel.HeapBytes()
	var initial *designer.Design
	var err error
	tr.do(root, "designer.initial_design", func(int) {
		initial, err = designer.NewCORADD(env.Common, env.Scale.Cand, feedback.Config{MaxIters: 1}).Design(budget)
	})
	if err != nil {
		return err
	}

	handler, _, stop, err := hostServer(env.Common, initial)
	if err != nil {
		return err
	}
	defer stop()
	for _, b := range bodies {
		tr.do(root, "server.handler", func(int) { err = serveOnce(handler, b) })
		if err != nil {
			return err
		}
	}

	ctl, err := adapt.New(env.Common, initial, daemonAdaptConfig(budget, minObserved))
	if err != nil {
		return err
	}
	ckpt := filepath.Join(cfg.tmpDir, "traced.checkpoint")
	deployed, migrating, sinceSave := ctl.Deployed(), ctl.Migrating(), 0
	process := func(q *query.Query) error {
		tr.do(root, "adapt.process", func(int) { _, err = ctl.Process(q) })
		if err != nil {
			return err
		}
		sinceSave++
		structural := ctl.Deployed() != deployed || ctl.Migrating() != migrating
		deployed, migrating = ctl.Deployed(), ctl.Migrating()
		if structural || sinceSave >= 64 {
			sinceSave = 0
			tr.do(root, "durable.save", func(int) {
				var cp *durable.Checkpoint
				if cp, err = durable.Capture(ctl); err == nil {
					err = durable.Save(ckpt, cp)
				}
			})
		}
		return err
	}
	for _, q := range stream {
		if err := process(q); err != nil {
			return err
		}
	}
	if r := ctl.Report(); r.Redesigns != 0 {
		return fmt.Errorf("the stationary stream triggered %d redesigns in the traced controller", r.Redesigns)
	}
	// The drifted templates round-robin until the redesign they trigger
	// has been solved, built and deployed.
	for i := 0; len(drifted) > 0 && (ctl.Report().Redesigns == 0 || ctl.Migrating()); i++ {
		if i == 100*len(drifted) {
			return fmt.Errorf("the traced controller deployed no redesign within %d drifted observations", i)
		}
		if err := process(drifted[i%len(drifted)]); err != nil {
			return err
		}
	}
	return nil
}

func traceServeSteady(cfg *runConfig, tr *tracer, res *workloadResult) error {
	names, docs, err := catalogBodies()
	if err != nil {
		return err
	}
	catalog := ssb.Queries()
	rng := rand.New(rand.NewSource(cfg.seed))
	stream := make([]*query.Query, 2000)
	for i := range stream {
		stream[i] = catalog[rng.Intn(len(catalog))]
	}
	tr.do(0, "serve_steady", func(root int) {
		err = traceServing(cfg, tr, root, 20_000, steadyMix(cfg.seed, 2000, names, docs), stream, nil, 1_000_000_000)
	})
	if err == nil {
		res.check("every traced request answered 200; the stationary stream triggered no redesign")
	}
	return err
}

func traceServeDrift(cfg *runConfig, tr *tracer, res *workloadResult) error {
	names, _, err := catalogBodies()
	if err != nil {
		return err
	}
	// Four rounds of the base mix, then the 52 augmented templates.
	var stream []*query.Query
	for range 4 {
		stream = append(stream, ssb.Queries()...)
	}
	tr.do(0, "serve_drift", func(root int) {
		err = traceServing(cfg, tr, root, 60_000, names, stream, ssb.AugmentedQueries(), 13)
	})
	if err == nil {
		res.check("the traced controller redesigned for the drifted mix and deployed it")
	}
	return err
}
