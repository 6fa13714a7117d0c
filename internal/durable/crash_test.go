package durable_test

import (
	"errors"
	"path/filepath"
	"testing"

	"coradd/internal/adapt"
	"coradd/internal/candgen"
	"coradd/internal/designer"
	"coradd/internal/durable"
	"coradd/internal/fault"
	"coradd/internal/feedback"
	"coradd/internal/ilp"
	"coradd/internal/query"
	"coradd/internal/ssb"
	"coradd/internal/stats"
	"coradd/internal/storage"
	"coradd/internal/workload"
)

// smallEnv mirrors internal/adapt's test harness: a small seeded SSB
// instance, an initial CORADD design, and controller tuning that drives
// a drift → migrate cycle on a short stream.
func smallEnv(t testing.TB, rows int) (designer.Common, *designer.Design, adapt.Config) {
	t.Helper()
	rel := ssb.Generate(ssb.Config{Rows: rows, Customers: 1000, Suppliers: 200, Parts: 800, Seed: 11})
	st := stats.New(rel, 1024, 5)
	cand := candgen.DefaultConfig()
	cand.Alphas = []float64{0, 0.25}
	cand.Restarts = 2
	cand.MaxInterleavings = 16
	common := designer.Common{
		St: st, W: ssb.Queries(), Disk: storage.DefaultDiskParams(),
		PKCols: ssb.PKCols(rel.Schema), BaseKey: rel.ClusterKey,
		Solve: ilp.SolveOptions{MaxNodes: 200_000},
	}
	budget := rel.HeapBytes() * 2
	initial, err := designer.NewCORADD(common, cand, feedback.Config{MaxIters: 1}).Design(budget)
	if err != nil {
		t.Fatal(err)
	}
	cfg := adapt.Config{
		Budget: budget,
		Cand:   cand,
		FB:     feedback.Config{MaxIters: 1},
		Monitor: workload.Config{
			HalfLife:      1e9,
			MinObserved:   13,
			DistThreshold: 0.2,
		},
		CheckEvery: 13,
	}
	return common, initial, cfg
}

// drivingStream runs the base SSB mix, then the augmented one.
func drivingStream(aEvents, bEvents int) []*query.Query {
	base, aug := ssb.Queries(), ssb.AugmentedQueries()
	var stream []*query.Query
	for i := 0; i < aEvents; i++ {
		stream = append(stream, base[i%len(base)])
	}
	for i := 0; i < bEvents; i++ {
		stream = append(stream, aug[i%len(aug)])
	}
	return stream
}

// TestCrashCheckpointResumeProperty is the durable analogue of adapt's
// crash-resume property: kill the controller after every completed build
// ordinal, persist its State through a real Save/Load cycle, restore from
// the loaded body, and require the identical cumulative build sequence
// and final deployed design as the uninterrupted reference run — what the
// daemon does between an injected crash and its next boot.
func TestCrashCheckpointResumeProperty(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	common, initial, cfg := smallEnv(t, 6000)
	cfg.FB.MaxIters = -1
	cfg.ReplanTolerance = -1
	cfg.Cache = designer.NewObjectCache()
	stream := drivingStream(39, 156)
	path := filepath.Join(t.TempDir(), "cp.json")

	type migDone struct {
		builds []string
		design string
		keys   map[string]int
	}
	keysOf := func(d *designer.Design) map[string]int {
		m := make(map[string]int, len(d.Chosen))
		for _, md := range d.Chosen {
			m[md.Key()]++
		}
		return m
	}
	buildEvents := func(rep adapt.Report) []string {
		var out []string
		for _, e := range rep.Events {
			if e.Kind == adapt.EventBuild {
				out = append(out, e.Detail)
			}
		}
		return out
	}

	ref, err := adapt.New(common, initial, cfg)
	if err != nil {
		t.Fatal(err)
	}
	var refDones []migDone
	for _, q := range stream {
		if _, err := ref.Process(q); err != nil {
			t.Fatal(err)
		}
		rep := ref.Report()
		done := 0
		for _, e := range rep.Events {
			if e.Kind == adapt.EventMigrationDone {
				done++
			}
		}
		if done > len(refDones) {
			refDones = append(refDones, migDone{
				builds: buildEvents(rep),
				design: ref.Deployed().Name,
				keys:   keysOf(ref.Deployed()),
			})
		}
	}
	if len(refDones) == 0 || len(refDones[len(refDones)-1].builds) < 2 {
		t.Skip("no completed multi-build migration — no crash points to test")
	}
	total := len(refDones[len(refDones)-1].builds)

	for k := 1; k <= total; k++ {
		cfgCrash := cfg
		cfgCrash.Faults = fault.New(fault.Config{CrashAfterBuilds: []int{k}})
		c, err := adapt.New(common, initial, cfgCrash)
		if err != nil {
			t.Fatal(err)
		}
		crashed := -1
		for i, q := range stream {
			if _, err := c.Process(q); err != nil {
				if !errors.Is(err, fault.ErrCrash) {
					t.Fatalf("crash %d: unexpected error: %v", k, err)
				}
				crashed = i
				break
			}
		}
		if crashed < 0 {
			t.Fatalf("crash %d never fired", k)
		}
		got := buildEvents(c.Report())

		// The full durability cycle: capture at the crash, write to disk,
		// read back, restore.
		cp, err := durable.Capture(c)
		if err != nil {
			t.Fatalf("crash %d: capture: %v", k, err)
		}
		if err := durable.Save(path, cp); err != nil {
			t.Fatalf("crash %d: save: %v", k, err)
		}
		loaded, err := durable.Load(path)
		if err != nil {
			t.Fatalf("crash %d: load: %v", k, err)
		}
		var st adapt.State
		if err := loaded.Decode(&st); err != nil {
			t.Fatalf("crash %d: decode: %v", k, err)
		}
		rc, err := adapt.Restore(common, st, cfg)
		if err != nil {
			t.Fatalf("crash %d: restore from checkpoint: %v", k, err)
		}
		for _, q := range stream[crashed+1:] {
			if !rc.Migrating() {
				break
			}
			if _, err := rc.Process(q); err != nil {
				t.Fatalf("crash %d: resumed run failed: %v", k, err)
			}
		}
		if rc.Migrating() {
			t.Fatalf("crash %d: resumed migration wedged", k)
		}
		got = append(got, buildEvents(rc.Report())...)

		var want migDone
		for _, md := range refDones {
			if len(md.builds) >= k {
				want = md
				break
			}
		}
		if len(got) != len(want.builds) {
			t.Fatalf("crash %d: %d builds across crash+resume, reference had %d:\n%v\nvs\n%v",
				k, len(got), len(want.builds), got, want.builds)
		}
		for i := range want.builds {
			if got[i] != want.builds[i] {
				t.Fatalf("crash %d: step %d diverged: %q vs %q", k, i, got[i], want.builds[i])
			}
		}
		gotKeys := keysOf(rc.Deployed())
		if len(gotKeys) != len(want.keys) {
			t.Fatalf("crash %d: resumed design has %d objects, reference %d", k, len(gotKeys), len(want.keys))
		}
		for key := range want.keys {
			if gotKeys[key] != want.keys[key] {
				t.Fatalf("crash %d: resumed design object set differs from reference %s", k, want.design)
			}
		}
	}
}
