package adapt

import (
	"coradd/internal/costmodel"
	"coradd/internal/designer"
	"coradd/internal/exec"
	"coradd/internal/ilp"
	"coradd/internal/obs"
	"coradd/internal/query"
	"coradd/internal/stats"
	"coradd/internal/storage"
)

// DefaultCalibrationThreshold is the relative modeled-vs-measured
// deviation above which calibration reports flag an object or template —
// the server's /statusz, the daemon and the calib experiment all report
// at this threshold unless told otherwise.
const DefaultCalibrationThreshold = 0.25

// MeasureTemplateTraced prices one query on a deployed design through the
// real simulated substrate — the design is rerouted for the single-query
// workload, materialized through the given cache and the routed plan
// executed — and returns the measured seconds together with the
// exec.PlanTrace naming the design object and access path that served the
// template, the rows it scanned versus returned, and the cost model's
// estimate next to the measurement. It is the one measurement procedure
// the controller, the server and the ablations' static baselines charge
// stream events with, so every run prices a (state, template) pair
// identically.
func MeasureTemplateTraced(st *stats.Stats, disk storage.DiskParams, cache *designer.ObjectCache,
	model costmodel.Model, d *designer.Design, q *query.Query) (float64, exec.PlanTrace, error) {

	w1 := query.Workload{q}
	rd := designer.Reroute(d, model, w1)
	ev := designer.NewEvaluator(st.Rel, w1, disk)
	ev.Cache = cache
	m, err := ev.Materialize(rd)
	if err != nil {
		return 0, exec.PlanTrace{}, err
	}
	rp := m.Plan[0]
	r, err := exec.Execute(rp.Object, q, rp.Spec)
	if err != nil {
		return 0, exec.PlanTrace{}, err
	}
	sec := r.Seconds(disk)
	obj := "base"
	if ri := rd.Routing[0]; ri >= 0 {
		obj = rd.Chosen[ri].Name
	}
	baseSec, _ := model.Estimate(rd.Base, q)
	tr := exec.PlanTrace{
		Object:       obj,
		Query:        q.Name,
		Plan:         rp.Spec.Kind.String(),
		RowsScanned:  exec.ScannedRows(rp.Object, r),
		RowsReturned: r.Rows,
		ModeledSec:   rd.Expected[0],
		BaseSec:      baseSec,
		MeasuredSec:  sec,
	}
	return sec, tr, nil
}

// priceTemplate prices q's template on the deployed state, measuring (and
// recording the attribution trace) on first sight per (state, template).
// Pricing is the attribution point: the calibration-error histogram
// observes each fresh measurement here; serve counting is recordServe's
// job, so replan pricing sweeps (measuredRate) never inflate it.
func (c *Controller) priceTemplate(q *query.Query) (float64, string, error) {
	key := c.Mon.KeyOf(q)
	if sec, ok := c.rates[key]; ok {
		return sec, key, nil
	}
	sec, tr, err := MeasureTemplateTraced(c.common.St, c.common.Disk, c.cache, c.model, c.deployed, q)
	if err != nil {
		return 0, "", err
	}
	c.rates[key] = sec
	c.attr[key] = tr
	c.obs.calibErr.Observe(abs(tr.CalibrationError()))
	return sec, key, nil
}

// recordServe charges one served stream query to the design object that
// served it: the cumulative per-(template, object) calibration record and
// the coradd_object_* metric families. Only Process calls it — one serve
// per stream query, never for pricing sweeps.
func (c *Controller) recordServe(key string, sec float64) {
	tr, ok := c.attr[key]
	if !ok {
		return
	}
	k := tr.Query + "\x00" + tr.Object
	rec := c.calib[k]
	if rec == nil {
		rec = &designer.TemplateCalibration{Query: tr.Query, Object: tr.Object, Plan: tr.Plan}
		c.calib[k] = rec
	}
	rec.Serves++
	rec.ModeledSum += tr.ModeledSec
	rec.MeasuredSum += sec
	rec.BaseSum += tr.BaseSec
	c.obs.objServes.With(tr.Object).Inc()
	c.obs.objSeconds.With(tr.Object).Add(sec)
}

// Calibration builds the cumulative modeled-vs-measured report over every
// (template, object) pair the stream has served, flagging relative
// deviations beyond threshold. Deterministic for a seeded stream: the
// records accumulate on the simulated timeline and the report's ordering
// is fully specified (designer.BuildCalibrationReport).
func (c *Controller) Calibration(threshold float64) *designer.CalibrationReport {
	ts := make([]designer.TemplateCalibration, 0, len(c.calib))
	for _, t := range c.calib {
		ts = append(ts, *t)
	}
	return designer.BuildCalibrationReport(threshold, ts)
}

// solveSink returns a progress sink mirroring solver search samples into
// the tracer (kind "solveprog") and the coradd_solve_gap gauge, or nil
// when neither a tracer nor a registry is attached — a nil sink keeps the
// solvers on their unobserved code paths, which is what keeps
// uninstrumented runs byte-identical. Samples are keyed to node ordinals
// inside the solvers, so an instrumented replay traces identically too.
func (c *Controller) solveSink(kind string) func(ilp.ProgressSample) {
	if c.tr == nil && c.cfg.Metrics == nil {
		return nil
	}
	return func(ps ilp.ProgressSample) {
		c.obs.solveGap.Set(ps.Gap())
		c.tr.Event(c.clock, "solveprog",
			obs.F("solve", kind), obs.F("phase", ps.Phase),
			obs.F("nodes", ps.Nodes), obs.F("pruned", ps.Pruned),
			obs.F("incumbents", ps.Incumbents), obs.F("subtree", ps.Subtree),
			obs.F("obj", ps.Incumbent), obs.F("bound", ps.Bound))
	}
}
