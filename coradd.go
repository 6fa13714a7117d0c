// Package coradd is the public API of the CORADD reproduction — the
// correlation-aware database designer for materialized views and indexes
// of Kimura, Huo, Rasin, Madden and Zdonik (PVLDB 3(1), 2010).
//
// The package re-exports the library's primary types from the internal
// implementation packages via aliases, so downstream users need only this
// import:
//
//	rel := coradd.GenerateSSB(coradd.SSBConfig{Rows: 200_000, Seed: 1})
//	w := coradd.SSBQueries()
//	sys, _ := coradd.NewSystem(rel, w, coradd.SystemConfig{PKCols: []string{"orderkey"}})
//	design, _ := sys.Design(4 * rel.HeapBytes()) // 4x-heap space budget
//	result, _ := sys.Measure(design)             // simulated runtimes
//
// The pipeline underneath is the paper's: statistics collection with
// selectivity propagation (§4.1), MV candidate generation by query
// grouping and interleaved clustered-key merging (§4.2), fact-table
// re-clustering (§4.3), exact ILP selection (§5), ILP feedback (§6), and
// correlation-map secondary indexes (Appendix A-1). See DESIGN.md for the
// full inventory and EXPERIMENTS.md for the reproduced evaluation.
package coradd

import (
	"fmt"

	"coradd/internal/adapt"
	"coradd/internal/apb"
	"coradd/internal/candgen"
	"coradd/internal/cm"
	"coradd/internal/corridx"
	"coradd/internal/deploy"
	"coradd/internal/designer"
	"coradd/internal/durable"
	"coradd/internal/exec"
	"coradd/internal/fault"
	"coradd/internal/feedback"
	"coradd/internal/obs"
	"coradd/internal/query"
	"coradd/internal/schema"
	"coradd/internal/server"
	"coradd/internal/ssb"
	"coradd/internal/stats"
	"coradd/internal/storage"
	"coradd/internal/tenant"
	"coradd/internal/value"
	"coradd/internal/workload"
)

// Core data types.
type (
	// Relation is a clustered heap file (a table or a materialized view).
	Relation = storage.Relation
	// Schema describes a relation's columns.
	Schema = schema.Schema
	// Column is one attribute with its logical byte width.
	Column = schema.Column
	// Query is one workload query (predicates, targets, aggregate).
	Query = query.Query
	// Predicate restricts one attribute (equality, range or IN).
	Predicate = query.Predicate
	// Workload is an ordered set of queries.
	Workload = query.Workload
	// Stats holds the collected statistics a designer runs on.
	Stats = stats.Stats
	// Design is a completed physical design.
	Design = designer.Design
	// Designer produces designs for varying budgets (CORADD, Commercial,
	// Naive all implement it).
	Designer = designer.Designer
	// DiskParams converts simulated I/O into seconds.
	DiskParams = storage.DiskParams
	// RunResult is a measured design (per-query simulated seconds).
	RunResult = designer.RunResult
	// CM is a correlation map, the paper's compressed secondary index.
	CM = cm.CM
	// CorrIndex is a correlation-exploiting secondary index (Hermit-style):
	// a bucketed range mapping from a target column onto the clustered
	// lead, with an outlier B+Tree for rows that break the mapping.
	CorrIndex = corridx.Index
	// Object is a materialized design object with its indexes and CMs.
	Object = exec.Object
	// MigrationPlan is an ordered build schedule migrating one design into
	// another while the workload keeps running (internal/deploy).
	MigrationPlan = designer.MigrationPlan
	// DeployOptions tunes the deployment scheduler's branch-and-bound.
	DeployOptions = deploy.Options
	// DeploySchedule is a solved (or explicitly evaluated) build order
	// with its cumulative-cost accounting.
	DeploySchedule = deploy.Schedule
	// MonitorConfig tunes the online workload monitor (half-life,
	// reservoir size, drift thresholds).
	MonitorConfig = workload.Config
	// TemplateInfo is one observed query template's public view.
	TemplateInfo = workload.TemplateInfo
	// AdaptiveController runs the observe → drift → redesign → migrate →
	// replan loop over a stream of executed queries (internal/adapt).
	AdaptiveController = adapt.Controller
	// AdaptiveConfig tunes the adaptive controller.
	AdaptiveConfig = adapt.Config
	// AdaptiveReport is the controller's telemetry (trace, counters,
	// cumulative workload-seconds).
	AdaptiveReport = adapt.Report
	// AdaptiveState is an adaptive controller's restart state
	// (AdaptiveController.State): the active design, the in-flight
	// migration journal and the monitor snapshot.
	AdaptiveState = adapt.State
	// FaultInjector is the deterministic fault layer (internal/fault): a
	// nil injector disables every fault path, byte for byte. Wire one into
	// AdaptiveConfig.Faults to fail/delay builds, time out solves and
	// crash migrations on a replayable schedule.
	FaultInjector = fault.Injector
	// FaultConfig is the injected fault schedule (seeded probabilities,
	// per-build caps, crash points).
	FaultConfig = fault.Config
	// RetryPolicy is the capped exponential backoff failed builds retry
	// under (AdaptiveConfig.Retry; zero value = the defaults).
	RetryPolicy = fault.RetryPolicy
	// Checkpoint is an AdaptiveState a Server persisted: written
	// write-temp-fsync-rename inside a checksummed envelope
	// (internal/durable); LoadCheckpoint rejects torn or foreign files
	// loudly.
	Checkpoint = durable.Checkpoint
	// Server is the durable serving daemon core (internal/server):
	// concurrent query execution against an atomic design snapshot, panic
	// recovery, request timeouts, token-bucket load shedding, health and
	// readiness probes, graceful drain, and crash-state checkpointing.
	Server = server.Server
	// ServerConfig tunes a Server (admission rate, request timeout,
	// checkpoint path and cadence, the adaptive tuning underneath).
	ServerConfig = server.Config
	// MetricsRegistry is the dependency-free metrics registry
	// (internal/obs): counters, gauges and log-linear latency histograms
	// with Prometheus text exposition. Wire one into ServerConfig.Metrics
	// (or AdaptiveConfig.Metrics) and serve it at /metrics; nil disables
	// every update at zero cost.
	MetricsRegistry = obs.Registry
	// EventTracer is the bounded-ring structured event trace
	// (internal/obs): typed simulated-clock events from the adaptive
	// controller, rendered in /statusz. nil disables it.
	EventTracer = obs.Tracer
	// TenantCoordinator is the multi-tenant design coordinator
	// (internal/tenant): each tenant's workload monitor feeds the §4
	// candidate generation over its snapshot, and one shared space budget
	// is split across tenants by one exact solve of the pooled selection
	// instance.
	TenantCoordinator = tenant.Coordinator
	// TenantConfig tunes a TenantCoordinator (global budget, solver
	// options, metrics registry).
	TenantConfig = tenant.Config
	// Tenant is one registered tenant workload: its monitor, cost model
	// and current design objects.
	Tenant = tenant.Tenant
)

// ErrCrash is the injected-crash sentinel: an AdaptiveController whose
// Process returns an error wrapping ErrCrash died mid-migration with its
// journal intact — rebuild it from its State with System.RestoreAdaptive.
var ErrCrash = fault.ErrCrash

// LoadCheckpoint reads and validates a checkpoint. A missing file
// returns os.ErrNotExist (a fresh start); torn, truncated, bit-flipped,
// foreign or future-versioned files fail loudly.
func LoadCheckpoint(path string) (*Checkpoint, error) { return durable.Load(path) }

// NewFaultInjector builds a deterministic fault injector from a schedule.
func NewFaultInjector(cfg FaultConfig) *FaultInjector { return fault.New(cfg) }

// NewMetricsRegistry builds an empty metrics registry.
func NewMetricsRegistry() *MetricsRegistry { return obs.NewRegistry() }

// NewEventTracer builds a bounded-ring event tracer keeping the most
// recent capacity events (capacity <= 0 uses the default, 256).
func NewEventTracer(capacity int) *EventTracer { return obs.NewTracer(capacity) }

// Value types: all attribute values are int64-coded (string attributes are
// dictionary-coded per column; see internal/value).
type (
	// V is one attribute value.
	V = value.V
	// Row is one tuple.
	Row = value.Row
	// PlanSpec names one access path on an object.
	PlanSpec = exec.PlanSpec
	// ExecResult is the outcome of executing a query on an object.
	ExecResult = exec.Result
	// MultiFact bundles one fact table's inputs for multi-fact design.
	MultiFact = designer.Fact
)

// Predicate constructors.
var (
	// Eq builds col = v.
	Eq = query.NewEq
	// Range builds lo ≤ col ≤ hi.
	Range = query.NewRange
)

// NewSchema builds a schema from columns (names must be unique).
func NewSchema(cols ...Column) *Schema { return schema.New(cols...) }

// fillCandidateDefaults substitutes the paper's tuning for every unset
// candidate-generation knob individually, so a caller who sets only a
// feature switch (CorrIdx) or a single knob (Seed) keeps it alongside the
// defaults.
func fillCandidateDefaults(c candgen.Config) candgen.Config {
	def := candgen.DefaultConfig()
	if c.T == 0 {
		c.T = def.T
	}
	if len(c.Alphas) == 0 {
		c.Alphas = def.Alphas
	}
	if c.MaxKeyLen == 0 {
		c.MaxKeyLen = def.MaxKeyLen
	}
	if c.MaxInterleavings == 0 {
		c.MaxInterleavings = def.MaxInterleavings
	}
	if c.Restarts == 0 {
		c.Restarts = def.Restarts
	}
	if c.Seed == 0 {
		c.Seed = def.Seed
	}
	return c
}

// NewRelation builds a clustered heap file from rows, stored column by
// column and sorted on clusterKey (column positions). It takes ownership
// of rows.
func NewRelation(name string, s *Schema, clusterKey []int, rows []Row) *Relation {
	return storage.NewRelation(name, s, clusterKey, rows)
}

// NewObject wraps a relation as a materialized design object ready for
// secondary indexes, correlation maps and query execution.
func NewObject(rel *Relation) *Object { return exec.NewObject(rel) }

// BuildCM builds a correlation map over rel keyed on the named columns
// with the given bucket widths (width 1 = exact values). pagesPerBucket ≤ 0
// selects the default clustered bucketing (20 pages).
func BuildCM(rel *Relation, cols []string, widths []V, pagesPerBucket int) *CM {
	return cm.Build(rel, rel.Schema.ColSet(cols...), widths, pagesPerBucket)
}

// DesignCM runs the CM Designer (paper A-1.2) for one query on rel,
// returning the fastest correlation map within the default 1 MB limit, or
// nil when none helps.
func DesignCM(rel *Relation, q *Query) *CM {
	return cm.Design(rel, q, cm.DefaultDesignerConfig())
}

// BuildCorrIdx learns a correlation index on rel for the named target
// column: predicates on it are answered by translation into value ranges
// on rel's clustered lead plus outlier probes. Fails when rel has no
// clustered key or the target is the lead itself. Enable corridx
// candidates in the designer with SystemConfig.Candidates.CorrIdx.
func BuildCorrIdx(rel *Relation, target string) (*CorrIndex, error) {
	return corridx.Build(rel, rel.Schema.MustCol(target), corridx.DefaultConfig())
}

// ExecuteBest runs q on o through the cheapest feasible plan and returns
// the result with its simulated I/O.
func ExecuteBest(o *Object, q *Query, disk DiskParams) (ExecResult, error) {
	return exec.Best(o, q, disk)
}

// Execute runs q on o with an explicit plan.
func Execute(o *Object, q *Query, spec PlanSpec) (ExecResult, error) {
	return exec.Execute(o, q, spec)
}

// DefaultDisk returns the disk model used throughout the paper's
// reproduction (5.5 ms seeks, ~80 MB/s sequential reads).
func DefaultDisk() DiskParams { return storage.DefaultDiskParams() }

// NewStats scans rel once and returns the designer statistics (exact
// single-column cardinalities, histograms, a random synopsis).
func NewStats(rel *Relation, sampleSize int, seed int64) *Stats {
	return stats.New(rel, sampleSize, seed)
}

// NewMultiSystem builds per-fact CORADD designers over a workload spanning
// several fact tables; its Design selects every fact's objects against one
// shared space budget in one pooled solve per feedback round (§4.1.2,
// §7.1). Use designer.SplitQuery to break two-fact queries into per-fact
// parts first.
func NewMultiSystem(facts map[string]MultiFact, w Workload, cfg SystemConfig) (*designer.Multi, error) {
	if cfg.Disk == (DiskParams{}) {
		cfg.Disk = storage.DefaultDiskParams()
	}
	cfg.Candidates = fillCandidateDefaults(cfg.Candidates)
	fb := feedback.Config{MaxIters: cfg.FeedbackIters}
	if cfg.FeedbackIters == 0 {
		fb.MaxIters = 2
	}
	return designer.NewMulti(facts, w, cfg.Disk, cfg.Candidates, fb)
}

// Plan-kind constants for Execute.
const (
	SeqScan       = exec.SeqScan
	SecondaryScan = exec.SecondaryScan
	CMScan        = exec.CMScan
	CorrIdxScan   = exec.CorrIdxScan
)

// Benchmark generators.
type (
	// SSBConfig sizes the Star Schema Benchmark generator.
	SSBConfig = ssb.Config
	// APBConfig sizes the APB-1 generator.
	APBConfig = apb.Config
)

// GenerateSSB builds the denormalized SSB lineorder relation.
func GenerateSSB(cfg SSBConfig) *Relation { return ssb.Generate(cfg) }

// SSBQueries returns the 13 standard SSB queries.
func SSBQueries() Workload { return ssb.Queries() }

// SSBAugmentedQueries returns the paper's 52-query augmented workload.
func SSBAugmentedQueries() Workload { return ssb.AugmentedQueries() }

// GenerateAPB builds the denormalized APB-1 sales relation.
func GenerateAPB(cfg APBConfig) *Relation { return apb.Generate(cfg) }

// APBQueries returns the 31 APB-1 template queries.
func APBQueries() Workload { return apb.Queries() }

// SystemConfig tunes a System.
type SystemConfig struct {
	// PKCols are the fact table's primary-key column names (used for the
	// extra index a re-clustered fact must carry). Defaults to the
	// relation's current clustered key.
	PKCols []string
	// SampleSize is the statistics synopsis size (default 4096).
	SampleSize int
	// Seed drives sampling and grouping determinism (default 1).
	Seed int64
	// FeedbackIters is the number of ILP-feedback iterations (default 2;
	// -1 disables feedback).
	FeedbackIters int
	// Candidates overrides candidate-generation tuning; zero value means
	// the paper defaults.
	Candidates candgen.Config
	// Disk overrides the disk model; zero value means the defaults
	// (5.5 ms seek, ~80 MB/s sequential).
	Disk DiskParams
}

// System is the ready-to-use designer over one fact table and workload.
type System struct {
	Fact *Relation
	W    Workload
	St   *Stats
	Disk DiskParams

	coradd    *designer.CORADD
	evaluator *designer.Evaluator
}

// NewSystem collects statistics over rel and prepares the CORADD designer
// for the workload.
func NewSystem(rel *Relation, w Workload, cfg SystemConfig) (*System, error) {
	if rel == nil || len(w) == 0 {
		return nil, fmt.Errorf("coradd: relation and workload are required")
	}
	if cfg.SampleSize <= 0 {
		cfg.SampleSize = stats.DefaultSampleSize
	}
	if cfg.Seed == 0 {
		cfg.Seed = 1
	}
	if cfg.Disk == (DiskParams{}) {
		cfg.Disk = storage.DefaultDiskParams()
	}
	cfg.Candidates = fillCandidateDefaults(cfg.Candidates)
	if cfg.FeedbackIters == 0 {
		cfg.FeedbackIters = 2
	}
	pk := rel.ClusterKey
	if len(cfg.PKCols) > 0 {
		pk = rel.Schema.ColSet(cfg.PKCols...)
	}
	st := stats.New(rel, cfg.SampleSize, cfg.Seed)
	common := designer.Common{
		St: st, W: w, Disk: cfg.Disk, PKCols: pk, BaseKey: rel.ClusterKey,
	}
	s := &System{Fact: rel, W: w, St: st, Disk: cfg.Disk}
	s.coradd = designer.NewCORADD(common, cfg.Candidates, feedback.Config{MaxIters: cfg.FeedbackIters})
	s.evaluator = designer.NewEvaluator(rel, w, cfg.Disk)
	return s, nil
}

// Design produces the CORADD design for the given space budget in bytes.
func (s *System) Design(budget int64) (*Design, error) {
	return s.coradd.Design(budget)
}

// Measure materializes a design on the simulated substrate and executes
// every workload query, returning per-query and total simulated runtimes.
func (s *System) Measure(d *Design) (*RunResult, error) {
	return s.evaluator.Measure(d)
}

// Baselines returns ready-made Commercial and Naive designers over the
// same inputs, for comparisons like the paper's Figures 9 and 11.
func (s *System) Baselines(cfg SystemConfig) (commercial, naive Designer) {
	cfg.Candidates = fillCandidateDefaults(cfg.Candidates)
	common := designer.Common{
		St: s.St, W: s.W, Disk: s.Disk,
		PKCols: s.coradd.PKCols, BaseKey: s.coradd.BaseKey,
	}
	com := designer.NewCommercial(common, cfg.Candidates)
	s.evaluator.Commercial = com
	return com, designer.NewNaive(common, cfg.Candidates)
}

// PlanMigration schedules the builds that turn the deployed design from
// into design to while this system's workload keeps running, minimizing
// cumulative workload cost over the deployment window (the evolving-
// workload story: design each phase with Design, then schedule the
// migration with the *new* phase's System). from may be nil for a fresh
// deployment. Both designs must be over this system's fact relation.
func (s *System) PlanMigration(from, to *Design, opts DeployOptions) (*MigrationPlan, error) {
	return designer.PlanMigration(s.St, s.Disk, s.W, s.coradd.Model, from, to, opts)
}

// MigrationPrefix assembles the intermediate design the workload runs on
// after the given builds of a migration plan (indexes into plan.Builds)
// are deployed: the kept objects plus that prefix, routed by this
// system's cost model. Measure it to trace a schedule's real
// cumulative-cost curve.
func (s *System) MigrationPrefix(plan *MigrationPlan, deployed []int) *Design {
	return plan.PrefixDesign(s.coradd.Model, s.W, deployed)
}

// EvaluateSchedule prices an explicit build order on a migration plan's
// scheduling problem — the tool for comparing naive deployment orders
// (arbitrary, size-ascending) against the solved schedule.
func EvaluateSchedule(plan *MigrationPlan, order []int) (*DeploySchedule, error) {
	return deploy.Evaluate(plan.Problem, order)
}

// Adaptive builds the adaptive redesign controller over this system:
// initial is the currently deployed design (e.g. the result of Design for
// the mix being served today) and cfg.Budget the space budget every
// drift-triggered redesign solves for. Unset candidate/feedback tuning
// inherits the system's. Drive it with Process/Run over the live query
// stream; see internal/adapt for the loop's semantics.
func (s *System) Adaptive(initial *Design, cfg AdaptiveConfig) (*AdaptiveController, error) {
	return adapt.New(s.coradd.Common, initial, s.adaptConfig(cfg))
}

// RestoreAdaptive rebuilds an adaptive controller from the State of a
// crashed one (its Process returned an error wrapping ErrCrash). An
// interrupted migration follows its journaled build order from the
// completed prefix; the monitor is re-seeded from the state's snapshot so
// drift detection continues the crashed trajectory instead of restarting
// cold.
func (s *System) RestoreAdaptive(st AdaptiveState, cfg AdaptiveConfig) (*AdaptiveController, error) {
	return adapt.Restore(s.coradd.Common, st, s.adaptConfig(cfg))
}

// adaptConfig fills unset candidate/feedback tuning from the system's.
func (s *System) adaptConfig(cfg AdaptiveConfig) AdaptiveConfig {
	cfg.Cand = fillCandidateDefaults(cfg.Cand)
	if cfg.FB.MaxIters == 0 {
		cfg.FB.MaxIters = s.coradd.Feedback.MaxIters
	}
	return cfg
}

// ServeAdaptive assembles the durable serving daemon core over this
// system: a Server executing catalog queries concurrently against the
// deployed design while the adaptive controller runs on its own
// goroutine. cp non-nil resumes from a loaded checkpoint (the design,
// journal and monitor snapshot it carries); otherwise initial is the
// cold-start deployed design. The returned server is started — wire
// srv.Handler() into an http.Server and call srv.Shutdown on SIGTERM.
// For staged boot (probes answering while data generation runs), use
// internal/server's NewStarting/Attach directly from the daemon.
func (s *System) ServeAdaptive(initial *Design, cp *Checkpoint, cfg ServerConfig) (*Server, error) {
	cfg.Adapt = s.adaptConfig(cfg.Adapt)
	srv := server.NewStarting(cfg)
	if cp != nil {
		if err := srv.AttachResumed(s.coradd.Common, cp); err != nil {
			return nil, err
		}
	} else {
		ctl, err := adapt.New(s.coradd.Common, initial, srv.AdaptConfig())
		if err != nil {
			return nil, err
		}
		srv.Attach(s.coradd.Common, ctl)
	}
	if err := srv.Start(); err != nil {
		return nil, err
	}
	return srv, nil
}

// MultiTenant builds a multi-tenant design coordinator: register tenant
// workloads with AddTenant (or TenantCoordinator.Add over any substrate),
// feed their query streams through Tenant.Observe, and each Redesign
// splits cfg.Budget across all tenants at once — one exact solve over the
// pooled per-tenant selection instances, so the split is the joint
// optimum whenever the solve is proven.
func MultiTenant(cfg TenantConfig) *TenantCoordinator { return tenant.New(cfg) }

// AddTenant registers a tenant running this system's fact table and
// statistics under co, monitored on the injected clock (seconds; inject a
// fake for deterministic replays). The tenant's workload is whatever its
// monitor observes — this system's configured workload is not consulted.
func (s *System) AddTenant(co *TenantCoordinator, name string, mcfg MonitorConfig, clock func() float64) (*Tenant, error) {
	return co.Add(name, s.coradd.Common, mcfg, clock)
}

// Strength exposes the CORDS correlation strength statistic
// strength(from → to) = |from| / |from,to| over column names.
func (s *System) Strength(from, to string) float64 {
	return s.St.Strength(
		[]int{s.Fact.Schema.MustCol(from)},
		[]int{s.Fact.Schema.MustCol(to)},
	)
}
