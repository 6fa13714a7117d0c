package designer

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"

	"coradd/internal/corridx"
	"coradd/internal/costmodel"
	"coradd/internal/feedback"
	"coradd/internal/par"
	"coradd/internal/schema"
	"coradd/internal/ssb"
	"coradd/internal/storage"
	"coradd/internal/value"
)

// cacheFixture builds a manual CORADD design over a small SSB instance and
// a fresh evaluator.
func cacheFixture(t *testing.T, rows int) (*Evaluator, *Design, Common) {
	t.Helper()
	rel, _, c := smallSSB(t, rows)
	all := make([]int, len(rel.Schema.Columns))
	for i := range all {
		all[i] = i
	}
	md := &costmodel.MVDesign{
		Name: "mv_cache", Cols: all,
		ClusterKey: []int{rel.Schema.MustCol(ssb.ColYear)},
		Queries:    []int{0, 1, 2},
	}
	d := manualDesign(t, c, StyleCORADD, md)
	for qi := range c.W {
		if qi > 2 {
			d.Routing[qi] = -1
		}
	}
	return NewEvaluator(rel, c.W, c.Disk), d, c
}

func TestMaterializationCacheHits(t *testing.T) {
	ev, d, _ := cacheFixture(t, 20000)
	m1, err := ev.Materialize(d)
	if err != nil {
		t.Fatal(err)
	}
	_, missesCold := ev.Cache.Stats()
	if missesCold == 0 {
		t.Fatal("cold materialization reported no cache misses")
	}
	m2, err := ev.Materialize(d)
	if err != nil {
		t.Fatal(err)
	}
	if m1.Objects[0] != m2.Objects[0] {
		t.Error("re-materializing the same design rebuilt the physical object")
	}
	if m1.Base != m2.Base {
		t.Error("base object not shared across materializations")
	}
	if m1.Bytes != m2.Bytes {
		t.Errorf("cached materialization sized %d, first run %d", m2.Bytes, m1.Bytes)
	}
	_, missesWarm := ev.Cache.Stats()
	if missesWarm != missesCold {
		t.Errorf("warm materialization missed the cache (%d → %d misses)", missesCold, missesWarm)
	}
	hits, _ := ev.Cache.Stats()
	if hits == 0 {
		t.Error("warm materialization recorded no hits")
	}
}

func TestMaterializationCacheKeysOnStructure(t *testing.T) {
	ev, d, c := cacheFixture(t, 20000)
	m1, err := ev.Materialize(d)
	if err != nil {
		t.Fatal(err)
	}

	// Same columns, different clustered key → different physical object.
	md2 := &costmodel.MVDesign{
		Name: "mv_cache", Cols: d.Chosen[0].Cols,
		ClusterKey: []int{ev.Fact.Schema.MustCol(ssb.ColDiscount)},
		Queries:    d.Chosen[0].Queries,
	}
	d2 := manualDesign(t, c, StyleCORADD, md2)
	copy(d2.Routing, d.Routing)
	m2, err := ev.Materialize(d2)
	if err != nil {
		t.Fatal(err)
	}
	if m1.Objects[0] == m2.Objects[0] {
		t.Error("designs with different cluster keys shared one object")
	}

	// Same structure, different routed-query set → different CM layout, so
	// a different object (the signature covers attached structures).
	d3 := manualDesign(t, c, StyleCORADD, d.Chosen[0])
	for qi := range c.W {
		if qi != 0 {
			d3.Routing[qi] = -1
		}
	}
	m3, err := ev.Materialize(d3)
	if err != nil {
		t.Fatal(err)
	}
	if m1.Objects[0] == m3.Objects[0] {
		t.Error("objects with different served-query sets (different CM sets) were shared")
	}

	// A renamed but structurally identical design still hits.
	md4 := *d.Chosen[0]
	md4.Name = "renamed"
	d4 := manualDesign(t, c, StyleCORADD, &md4)
	copy(d4.Routing, d.Routing)
	m4, err := ev.Materialize(d4)
	if err != nil {
		t.Fatal(err)
	}
	if m1.Objects[0] != m4.Objects[0] {
		t.Error("renaming a structurally identical design defeated the cache")
	}
}

func TestMaterializationCacheFlushInvalidates(t *testing.T) {
	ev, d, _ := cacheFixture(t, 20000)
	m1, err := ev.Materialize(d)
	if err != nil {
		t.Fatal(err)
	}
	ev.Cache.Flush()
	m2, err := ev.Materialize(d)
	if err != nil {
		t.Fatal(err)
	}
	if m1.Objects[0] == m2.Objects[0] {
		t.Error("Flush did not invalidate cached objects")
	}
	// The rebuilt object must be structurally identical.
	if m1.Bytes != m2.Bytes {
		t.Errorf("rebuild sized %d, original %d", m2.Bytes, m1.Bytes)
	}
	if len(m1.Objects[0].CMs) != len(m2.Objects[0].CMs) {
		t.Errorf("rebuild attached %d CMs, original %d", len(m2.Objects[0].CMs), len(m1.Objects[0].CMs))
	}
}

// TestParallelEvaluationDeterministic measures a mix of designs twice —
// once sequentially (Workers=1, cold cache) and once concurrently across
// designs AND queries on a shared warm cache — and requires bit-identical
// results. Run under -race this also proves cache and executor access is
// race-free.
func TestParallelEvaluationDeterministic(t *testing.T) {
	rel, _, c := smallSSB(t, 30000)
	coradd := NewCORADD(c, smallCandCfg(), feedback.Config{MaxIters: -1})
	var designs []*Design
	for _, mult := range []int64{1, 2, 4} {
		d, err := coradd.Design(rel.HeapBytes() * mult)
		if err != nil {
			t.Fatal(err)
		}
		designs = append(designs, d)
	}

	seqEv := NewEvaluator(rel, c.W, c.Disk)
	seqEv.Workers = 1
	seq := make([]*RunResult, len(designs))
	for i, d := range designs {
		r, err := seqEv.Measure(d)
		if err != nil {
			t.Fatal(err)
		}
		seq[i] = r
	}

	parEv := NewEvaluator(rel, c.W, c.Disk)
	parResults := make([]*RunResult, len(designs))
	errs := make([]error, len(designs))
	for trial := 0; trial < 2; trial++ { // second trial exercises the warm cache
		par.ForEach(len(designs), 0, func(i int) {
			parResults[i], errs[i] = parEv.Measure(designs[i])
		})
		for i, err := range errs {
			if err != nil {
				t.Fatalf("design %d: %v", i, err)
			}
			if parResults[i].Total != seq[i].Total {
				t.Errorf("trial %d design %d: parallel total %v != sequential %v",
					trial, i, parResults[i].Total, seq[i].Total)
			}
			for qi := range c.W {
				if parResults[i].Sums[qi] != seq[i].Sums[qi] {
					t.Errorf("trial %d design %d %s: sum %d != %d",
						trial, i, c.W[qi].Name, parResults[i].Sums[qi], seq[i].Sums[qi])
				}
				if parResults[i].PerQuery[qi] != seq[i].PerQuery[qi] {
					t.Errorf("trial %d design %d %s: seconds %v != %v",
						trial, i, c.W[qi].Name, parResults[i].PerQuery[qi], seq[i].PerQuery[qi])
				}
			}
		}
	}
}

// TestConcurrentMissesBuildOnce starts every other requester of a key while
// its first build is held open: the build must run once, everyone must get
// its result, and the others — waiting on the flight or arriving after it
// landed — count as hits. A failed build hands its waiters nothing; each
// then builds for itself.
func TestConcurrentMissesBuildOnce(t *testing.T) {
	const n = 8
	c := NewObjectCache()
	var builds atomic.Int32
	started, release := make(chan struct{}), make(chan struct{})
	want := &storage.Relation{Name: "built once", Schema: schema.New(schema.Column{Name: "a", ByteSize: 4})}
	got := make([]*storage.Relation, n)
	var wg sync.WaitGroup
	request := func(i int) {
		defer wg.Done()
		got[i] = c.relation("k", func() *storage.Relation {
			builds.Add(1)
			close(started)
			<-release
			return want
		})
	}
	wg.Add(n)
	go request(0)
	<-started // the flight for "k" is registered from here on
	for i := 1; i < n; i++ {
		go request(i)
	}
	close(release)
	wg.Wait()
	if b := builds.Load(); b != 1 {
		t.Fatalf("%d goroutines missing one key ran %d builds, want 1", n, b)
	}
	for i, r := range got {
		if r != want {
			t.Fatalf("requester %d got %p, want the one built relation %p", i, r, want)
		}
	}
	if hits, misses := c.Stats(); hits != n-1 || misses != 1 {
		t.Errorf("hits/misses = %d/%d, want %d/1", hits, misses, n-1)
	}

	builds.Store(0)
	boom := errors.New("boom")
	wg.Add(n)
	for i := 0; i < n; i++ {
		go func() {
			defer wg.Done()
			if _, err := c.corrIdx("bad", func() (*corridx.Index, error) {
				builds.Add(1)
				return nil, boom
			}); err != boom {
				t.Errorf("failed build returned %v, want its own error", err)
			}
		}()
	}
	wg.Wait()
	if b := builds.Load(); b != n {
		t.Errorf("a failed build was shared: %d builds for %d requesters", b, n)
	}
}

func TestCacheLRUEviction(t *testing.T) {
	ev, d, _ := cacheFixture(t, 4000)
	if _, err := ev.Measure(d); err != nil {
		t.Fatal(err)
	}
	used := ev.Cache.UsedBytes()
	if used <= 0 {
		t.Fatal("cache reports no footprint after a measure")
	}
	// Shrink below the current footprint: eviction must bring usage down.
	ev.Cache.SetMaxBytes(used / 2)
	if got := ev.Cache.UsedBytes(); got > used/2 {
		t.Fatalf("UsedBytes=%d after SetMaxBytes(%d)", got, used/2)
	}
	// Evicted artifacts rebuild deterministically: results are unchanged.
	r1, err := ev.Measure(d)
	if err != nil {
		t.Fatal(err)
	}
	ev.Cache.Flush()
	r2, err := ev.Measure(d)
	if err != nil {
		t.Fatal(err)
	}
	for qi := range r1.Sums {
		if r1.Sums[qi] != r2.Sums[qi] || r1.PerQuery[qi] != r2.PerQuery[qi] {
			t.Fatalf("query %d differs after eviction: %v/%v vs %v/%v",
				qi, r1.Sums[qi], r1.PerQuery[qi], r2.Sums[qi], r2.PerQuery[qi])
		}
	}
}

// tinyRel builds a one-page relation for cache-accounting tests.
func tinyRel(name string) *storage.Relation {
	s := schema.New(schema.Column{Name: "k", ByteSize: 8})
	rows := make([]value.Row, 16)
	for i := range rows {
		rows[i] = value.Row{value.V(i)}
	}
	return storage.NewRelation(name, s, []int{0}, rows)
}

// TestCacheEvictionOrderLRU pins the eviction order under byte pressure:
// with room for three one-page relations, inserting a fourth evicts
// exactly the least recently used entry — a recent hit protects its
// entry, and survivors are served from cache without rebuilding.
func TestCacheEvictionOrderLRU(t *testing.T) {
	page := int64(storage.PageSize)
	c := NewObjectCache()
	c.SetMaxBytes(4*page - 1)
	builds := map[string]int{}
	get := func(sig string) *storage.Relation {
		return c.relation(sig, func() *storage.Relation {
			builds[sig]++
			return tinyRel(sig)
		})
	}
	get("A")
	get("B")
	get("C")
	get("A") // hit: A becomes most recent, B is now the LRU entry
	get("D") // 4 pages > cap: evicts exactly one entry
	if used := c.UsedBytes(); used != 3*page {
		t.Fatalf("UsedBytes = %d after eviction, want %d", used, 3*page)
	}
	for _, sig := range []string{"A", "C", "D"} {
		get(sig)
		if builds[sig] != 1 {
			t.Errorf("%s rebuilt (%d builds) — evicted out of LRU order", sig, builds[sig])
		}
	}
	get("B")
	if builds["B"] != 2 {
		t.Errorf("B built %d times, want 2 (the LRU victim rebuilds on next use)", builds["B"])
	}
}

// TestCacheFlushBetweenPhases drives the cmd/experiments usage pattern:
// measure one phase, Flush to release its working set, measure the next
// phase, and require both correct results and fully released accounting —
// re-measuring phase 1 afterwards must rebuild to identical numbers.
func TestCacheFlushBetweenPhases(t *testing.T) {
	ev, d1, c := cacheFixture(t, 8000)
	// Phase 2: same columns clustered differently.
	md2 := &costmodel.MVDesign{
		Name: "mv_phase2", Cols: d1.Chosen[0].Cols,
		ClusterKey: []int{ev.Fact.Schema.MustCol(ssb.ColDiscount)},
		Queries:    d1.Chosen[0].Queries,
	}
	d2 := manualDesign(t, c, StyleCORADD, md2)
	copy(d2.Routing, d1.Routing)

	r1, err := ev.Measure(d1)
	if err != nil {
		t.Fatal(err)
	}
	ev.Cache.Flush()
	if used := ev.Cache.UsedBytes(); used != 0 {
		t.Fatalf("UsedBytes = %d after Flush, want 0", used)
	}
	if _, err := ev.Measure(d2); err != nil {
		t.Fatal(err)
	}
	if ev.Cache.UsedBytes() <= 0 {
		t.Fatal("phase-2 measure charged nothing to the flushed cache")
	}
	r1b, err := ev.Measure(d1)
	if err != nil {
		t.Fatal(err)
	}
	for qi := range r1.Sums {
		if r1.Sums[qi] != r1b.Sums[qi] || r1.PerQuery[qi] != r1b.PerQuery[qi] {
			t.Fatalf("query %d differs after inter-phase flush: %v/%v vs %v/%v",
				qi, r1.Sums[qi], r1.PerQuery[qi], r1b.Sums[qi], r1b.PerQuery[qi])
		}
	}
}
