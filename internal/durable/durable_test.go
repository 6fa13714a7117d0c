package durable

import (
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"coradd/internal/adapt"
	"coradd/internal/candgen"
	"coradd/internal/costmodel"
	"coradd/internal/deploy"
	"coradd/internal/designer"
	"coradd/internal/fault"
	"coradd/internal/feedback"
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
	}
	// Same node cap as internal/server's testEnv: at this scale the
	// solver proves identical optima within 200k nodes, ~5x faster.
	common.Solve.MaxNodes = 200_000
	budget := rel.HeapBytes() * 2
	des := designer.NewCORADD(common, cand, feedback.Config{MaxIters: 1})
	initial, err := des.Design(budget)
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

// drivingStream interleaves the base and augmented SSB mixes.
func drivingStream(aEvents, bEvents int) []*query.Query {
	base := ssb.Queries()
	aug := ssb.AugmentedQueries()
	var stream []*query.Query
	for i := 0; i < aEvents; i++ {
		stream = append(stream, base[i%len(base)])
	}
	for i := 0; i < bEvents; i++ {
		stream = append(stream, aug[i%len(aug)])
	}
	return stream
}

// TestCheckpointRoundTrip: Capture → Save → Load → Controller rebuilds a
// working controller, idle and mid-migration alike.
func TestCheckpointRoundTrip(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	common, initial, cfg := smallEnv(t, 6000)
	cfg.ReplanTolerance = -1
	c, err := adapt.New(common, initial, cfg)
	if err != nil {
		t.Fatal(err)
	}
	stream := drivingStream(39, 156)
	path := filepath.Join(t.TempDir(), "cp.json")

	sawMigrating := false
	for _, q := range stream {
		if _, err := c.Process(q); err != nil {
			t.Fatal(err)
		}
		cp, err := Capture(c)
		if err != nil {
			t.Fatal(err)
		}
		if err := Save(path, cp); err != nil {
			t.Fatal(err)
		}
		got, err := Load(path)
		if err != nil {
			t.Fatalf("reloading the checkpoint just saved: %v", err)
		}
		// Mid-migration the record is the target; idle it is the serving
		// design itself, so a restart resurfaces the deployed identity
		// (prefix names like "CORADD+3"), not a lookalike.
		wantName := c.Deployed().Name
		if c.Migrating() {
			wantName = c.Incumbent().Name
		}
		if got.Design.Name != wantName {
			t.Fatalf("design %q round-tripped as %q", wantName, got.Design.Name)
		}
		if (len(got.Journal) > 0) != c.Migrating() {
			t.Fatalf("journal presence %v does not match Migrating()=%v", len(got.Journal) > 0, c.Migrating())
		}
		if c.Migrating() {
			sawMigrating = true
		}
		rc, err := got.Controller(common, cfg)
		if err != nil {
			t.Fatalf("rebuilding controller from checkpoint: %v", err)
		}
		if rc.Migrating() != c.Migrating() && len(got.Journal) > 0 {
			// A journal whose Next is empty legitimately resumes
			// non-migrating; anything else must match.
			t.Fatalf("resumed Migrating()=%v, original %v", rc.Migrating(), c.Migrating())
		}
		if _, err := rc.Process(stream[0]); err != nil {
			t.Fatalf("rebuilt controller cannot process: %v", err)
		}
	}
	if !sawMigrating {
		t.Error("stream never entered a migration — the round trip exercised no journal")
	}
	if len(c.Mon.Snapshot()) == 0 {
		t.Fatal("monitor snapshot empty at end of stream")
	}
}

// TestSaveIsAtomic: a Save over an existing checkpoint leaves no temp
// droppings and the file always parses — and Save into a directory with
// a pre-existing good checkpoint never destroys it on failure paths.
func TestSaveIsAtomic(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "cp.json")
	cp := &Checkpoint{
		Design:   &DesignRecord{Name: "d", Base: &costmodel.MVDesign{Name: "base", Cols: []int{0, 1}, ClusterKey: []int{0}}},
		Workload: query.Workload{},
	}
	for i := 0; i < 3; i++ {
		if err := Save(path, cp); err != nil {
			t.Fatal(err)
		}
		if _, err := Load(path); err != nil {
			t.Fatal(err)
		}
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != 1 {
		t.Fatalf("directory holds %d entries after repeated saves, want just the checkpoint", len(ents))
	}
}

// TestLoadRejectsCorruption: truncations at every byte boundary and a
// bit flip in every byte are all rejected — never loaded as a
// plausible-but-wrong checkpoint — while the intact file still loads.
func TestLoadRejectsCorruption(t *testing.T) {
	base := &DesignRecord{Name: "seed", Base: &costmodel.MVDesign{Name: "base", Cols: []int{0, 1, 2}, ClusterKey: []int{0}}}
	cp := &Checkpoint{Design: base, Workload: ssb.Queries()[:2]}
	dir := t.TempDir()
	path := filepath.Join(dir, "cp.json")
	if err := Save(path, cp); err != nil {
		t.Fatal(err)
	}
	good, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Load(path); err != nil {
		t.Fatalf("intact checkpoint rejected: %v", err)
	}

	bad := filepath.Join(dir, "bad.json")
	check := func(name string, data []byte) {
		t.Helper()
		if err := os.WriteFile(bad, data, 0o600); err != nil {
			t.Fatal(err)
		}
		if _, err := Load(bad); err == nil {
			t.Errorf("%s: Load accepted a damaged checkpoint", name)
		} else if errors.Is(err, os.ErrNotExist) {
			t.Errorf("%s: damage misreported as a missing file", name)
		}
	}

	// Truncation at a spread of boundaries (every byte is slow at no
	// added coverage; stride keeps it dense near the interesting edges).
	for cut := 1; cut < len(good); cut += 7 {
		check("truncated", good[:cut])
	}
	// A single bit flip anywhere must trip the checksum (or the JSON
	// parse — either way, a loud rejection).
	for i := 0; i < len(good); i += 3 {
		flipped := append([]byte(nil), good...)
		flipped[i] ^= 0x10
		check("bit flip", flipped)
	}
	check("foreign file", []byte(`{"format":"coradd-journal","version":1,"builds":[]}`))
	check("not json", []byte("checkpoint"))
}

// TestLoadVersionAndMissing: an unknown version fails with ErrVersion
// naming both versions; a missing file surfaces os.ErrNotExist so a
// fresh start is distinguishable from damage.
func TestLoadVersionAndMissing(t *testing.T) {
	dir := t.TempDir()
	future := filepath.Join(dir, "future.json")
	if err := os.WriteFile(future, []byte(`{"format":"coradd-checkpoint","version":99,"crc32":0,"body":{}}`), 0o600); err != nil {
		t.Fatal(err)
	}
	_, err := Load(future)
	if !errors.Is(err, ErrVersion) {
		t.Fatalf("future version: got %v, want ErrVersion", err)
	}
	if !strings.Contains(err.Error(), "99") {
		t.Errorf("version error does not name the unknown version: %v", err)
	}
	_, err = Load(filepath.Join(dir, "absent.json"))
	if !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("missing file: got %v, want os.ErrNotExist", err)
	}
}

// TestCrashCheckpointResumeProperty is the durable analogue of adapt's
// crash-resume property: kill the controller after every completed build
// ordinal, persist its state through a real Save/Load cycle, rebuild
// from the loaded checkpoint, and require the identical cumulative build
// sequence and final deployed design as the uninterrupted reference run.
func TestCrashCheckpointResumeProperty(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	common, initial, cfg := smallEnv(t, 6000)
	cfg.FB.MaxIters = -1
	cfg.ReplanTolerance = -1
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
		// read back, rebuild. This is what the daemon does between the
		// ErrCrash return and os.Exit, and what its next boot does.
		cp, err := Capture(c)
		if err != nil {
			t.Fatalf("crash %d: capture: %v", k, err)
		}
		if err := Save(path, cp); err != nil {
			t.Fatalf("crash %d: save: %v", k, err)
		}
		loaded, err := Load(path)
		if err != nil {
			t.Fatalf("crash %d: load: %v", k, err)
		}
		rc, err := loaded.Controller(common, cfg)
		if err != nil {
			t.Fatalf("crash %d: controller from checkpoint: %v", k, err)
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

// FuzzLoad: a checkpoint file is bytes this process did not just write —
// a previous life's, possibly torn, flipped, foreign or from a newer
// build. The decode half of Load must never panic and must classify every
// rejection as ErrCorrupt or ErrVersion; whatever it accepts carries a
// design, re-encodes to something it accepts again, and holds a journal
// DecodeJournal can be handed without panicking.
func FuzzLoad(f *testing.F) {
	journal, err := (&deploy.Journal{Builds: []string{"\x03\x00\xff\x03\x00", "b1"}, Done: []int{0}, Next: []int{1}}).Encode()
	if err != nil {
		f.Fatal(err)
	}
	base := &DesignRecord{Name: "seed", Base: &costmodel.MVDesign{Name: "base", Cols: []int{0, 1, 2}, ClusterKey: []int{0}}}
	for _, cp := range []*Checkpoint{
		{Design: base, Workload: ssb.Queries()[:2]},
		{Design: base, Workload: ssb.Queries()[:1], Journal: journal},
		{Design: base, Journal: []byte(`{"format":"coradd-journal","version":1,"builds":["zz"],"next":[0]}`)},
	} {
		good, err := encode(cp)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(good)
		f.Add(good[:len(good)*2/3])
	}
	f.Add([]byte(`{"format":"coradd-checkpoint","version":99,"crc32":0,"body":{}}`))
	f.Add([]byte(`{"format":"coradd-checkpoint","version":1,"crc32":2745614147,"body":{}}`))
	f.Add([]byte(`{"format":"coradd-journal","version":1,"builds":[]}`))
	f.Add([]byte("checkpoint"))
	f.Fuzz(func(t *testing.T, data []byte) {
		cp, err := decode(data, "fuzz")
		if err != nil {
			if !errors.Is(err, ErrCorrupt) && !errors.Is(err, ErrVersion) {
				t.Fatalf("rejection is neither ErrCorrupt nor ErrVersion: %v", err)
			}
			return
		}
		if cp.Design == nil || cp.Design.Base == nil {
			t.Fatal("accepted a checkpoint without a design")
		}
		if len(cp.Journal) > 0 {
			// Checkpoint.Controller reports a bad journal as ErrCorrupt;
			// here it only has to be rejected without a panic.
			_, _ = deploy.DecodeJournal(cp.Journal)
		}
		again, err := encode(cp)
		if err != nil {
			t.Fatalf("accepted checkpoint does not re-encode: %v", err)
		}
		if _, err := decode(again, "fuzz"); err != nil {
			t.Fatalf("re-encoded checkpoint rejected: %v", err)
		}
	})
}
