package adapt

import (
	"math"

	"coradd/internal/designer"
	"coradd/internal/ilp"
	"coradd/internal/obs"
	"coradd/internal/query"
)

// DefaultCalibrationThreshold is the relative modeled-vs-measured
// deviation above which calibration reports flag an object or template —
// the server's /statusz, the daemon and the calib experiment all report
// at this threshold unless told otherwise.
const DefaultCalibrationThreshold = 0.25

// priceTemplate prices q's template on the deployed state, measuring it
// and its attribution trace on first sight per (state, template); serve
// counting is recordServe's, so replan pricing sweeps never inflate it.
func (c *Controller) priceTemplate(q *query.Query) (float64, string, error) {
	if c.ratesOn != c.s.deployed {
		// A new deployed state: every template re-prices.
		c.rates, c.ratesOn = make(map[string]float64), c.s.deployed
	}
	key := c.Mon.KeyOf(q)
	if sec, ok := c.rates[key]; ok {
		return sec, key, nil
	}
	sec, tr, err := designer.MeasureTemplateTraced(c.common.St, c.common.Disk, c.cfg.Cache, c.model, c.s.deployed, q)
	if err != nil {
		return 0, "", err
	}
	c.rates[key] = sec
	c.attr[key] = tr
	c.obs.calibErr.Observe(math.Abs(tr.CalibrationError()))
	return sec, key, nil
}

// recordServe charges one served stream query to the design object that
// served it: the cumulative per-(template, object) calibration record and
// the coradd_object_* metric families. Only Observe calls it — one serve
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
// deviations beyond threshold; deterministic for a seeded stream.
func (c *Controller) Calibration(threshold float64) *designer.CalibrationReport {
	ts := make([]designer.TemplateCalibration, 0, len(c.calib))
	for _, t := range c.calib {
		ts = append(ts, *t)
	}
	return designer.BuildCalibrationReport(threshold, ts)
}

// solveSink returns a progress sink mirroring solver search samples into
// the tracer (kind "solveprog") and the coradd_solve_gap gauge, or nil —
// the solvers' unobserved path — when neither is attached. Samples are
// keyed to node ordinals and stamped with the clock the solve was issued
// at, so an instrumented replay traces identically.
func (c *Controller) solveSink(kind solveKind, clock float64) func(ilp.ProgressSample) {
	if c.tr == nil && c.cfg.Metrics == nil {
		return nil
	}
	return func(ps ilp.ProgressSample) {
		c.obs.solveGap.Set(ps.Gap())
		c.tr.Event(clock, "solveprog",
			obs.F("solve", solveNames[kind]), obs.F("phase", ps.Phase),
			obs.F("nodes", ps.Nodes), obs.F("pruned", ps.Pruned),
			obs.F("incumbents", ps.Incumbents),
			obs.F("obj", ps.Incumbent), obs.F("bound", ps.Bound))
	}
}
