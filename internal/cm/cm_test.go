package cm

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"testing/quick"

	"coradd/internal/query"
	"coradd/internal/schema"
	"coradd/internal/storage"
	"coradd/internal/value"
)

// correlated builds t(a,b,c) clustered on a with b = a/10 (correlated) and
// c random.
func correlated(n int, seed int64) *storage.Relation {
	s := schema.New(
		schema.Column{Name: "a", ByteSize: 4},
		schema.Column{Name: "b", ByteSize: 4},
		schema.Column{Name: "c", ByteSize: 4},
	)
	rng := rand.New(rand.NewSource(seed))
	rows := make([]value.Row, n)
	for i := range rows {
		a := value.V(rng.Intn(200))
		rows[i] = value.Row{a, a / 10, value.V(rng.Intn(100))}
	}
	return storage.NewRelation("t", s, s.ColSet("a"), rows)
}

func TestCMNoFalseNegatives(t *testing.T) {
	rel := correlated(20000, 1)
	m := Build(rel, rel.Schema.ColSet("b"), []value.V{1}, 4)
	prop := func(v uint8) bool {
		p := query.NewEq("b", value.V(v%25))
		ranges := m.PageRanges(m.Buckets([]*query.Predicate{&p}))
		covered := func(page int) bool {
			for _, r := range ranges {
				if page >= r[0] && page < r[1] {
					return true
				}
			}
			return false
		}
		for i, row := range rel.Rows {
			if p.Matches(row[rel.Schema.MustCol("b")]) && !covered(i/rel.TuplesPerPage()) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestBucketedCMNoFalseNegatives(t *testing.T) {
	rel := correlated(20000, 2)
	for _, width := range []value.V{2, 8, 32} {
		m := Build(rel, rel.Schema.ColSet("b"), []value.V{width}, 4)
		p := query.NewRange("b", 3, 7)
		ranges := m.PageRanges(m.Buckets([]*query.Predicate{&p}))
		covered := func(page int) bool {
			for _, r := range ranges {
				if page >= r[0] && page < r[1] {
					return true
				}
			}
			return false
		}
		for i, row := range rel.Rows {
			if p.Matches(row[1]) && !covered(i/rel.TuplesPerPage()) {
				t.Fatalf("width %d: matching row on uncovered page %d", width, i/rel.TuplesPerPage())
			}
		}
	}
}

func TestWiderBucketsSmallerCM(t *testing.T) {
	rel := correlated(20000, 3)
	prev := int64(1 << 62)
	for _, width := range []value.V{1, 2, 8, 64} {
		m := Build(rel, rel.Schema.ColSet("c"), []value.V{width}, 4)
		if m.Bytes() > prev {
			t.Errorf("width %d CM bigger than narrower bucketing: %d > %d", width, m.Bytes(), prev)
		}
		prev = m.Bytes()
	}
}

func TestCorrelatedCMSmallerThanUncorrelated(t *testing.T) {
	rel := correlated(50000, 4)
	mb := Build(rel, rel.Schema.ColSet("b"), []value.V{1}, 4) // correlated
	mc := Build(rel, rel.Schema.ColSet("c"), []value.V{1}, 4) // uncorrelated
	if mb.Bytes()*4 > mc.Bytes() {
		t.Errorf("correlated CM %dB not ≪ uncorrelated %dB", mb.Bytes(), mc.Bytes())
	}
}

func TestCMDwarfsDenseIndex(t *testing.T) {
	rel := correlated(50000, 5)
	m := Build(rel, rel.Schema.ColSet("b"), []value.V{1}, 4)
	// One entry per distinct (b, bucket) pair, not per tuple.
	if m.NumPairs() >= rel.NumRows()/10 {
		t.Errorf("CM pairs %d not ≪ %d tuples", m.NumPairs(), rel.NumRows())
	}
}

func TestPageRangesMergeAdjacent(t *testing.T) {
	m := &CM{ClusterPagesPerBucket: 10, numPages: 100}
	got := m.PageRanges([]int32{0, 1, 5})
	if len(got) != 2 {
		t.Fatalf("ranges = %v, want 2 (buckets 0,1 merge)", got)
	}
	if got[0] != [2]int{0, 20} || got[1] != [2]int{50, 60} {
		t.Errorf("ranges = %v", got)
	}
}

func TestPageRangesClampToHeap(t *testing.T) {
	m := &CM{ClusterPagesPerBucket: 10, numPages: 15}
	got := m.PageRanges([]int32{1})
	if got[0][1] != 15 {
		t.Errorf("range end = %d, want clamped to 15", got[0][1])
	}
}

func TestDesignerPrefersCorrelatedKey(t *testing.T) {
	// Large enough that sequential pages dominate the per-fragment seeks —
	// on tiny heaps no CM beats a scan and the designer correctly abstains.
	rel := correlated(300000, 6)
	q := &query.Query{
		Name: "q", Fact: "t",
		Predicates: []query.Predicate{query.NewEq("b", 7), query.NewEq("c", 3)},
		AggCol:     "c",
	}
	m := Design(rel, q, DefaultDesignerConfig())
	if m == nil {
		t.Fatal("designer returned nil")
	}
	hasB := false
	for _, c := range m.KeyCols {
		if c == rel.Schema.MustCol("b") {
			hasB = true
		}
	}
	if !hasB {
		t.Errorf("designer's CM key %v skips the correlated attribute", m.KeyCols)
	}
	if m.Bytes() > DefaultSpaceLimit {
		t.Errorf("designed CM exceeds the space limit: %d", m.Bytes())
	}
}

func TestDesignerNilWhenOnlyClusteredPredicate(t *testing.T) {
	rel := correlated(10000, 7)
	q := &query.Query{
		Name: "q", Fact: "t",
		Predicates: []query.Predicate{query.NewEq("a", 7)},
	}
	if m := Design(rel, q, DefaultDesignerConfig()); m != nil {
		t.Errorf("designer built a CM %v for a clustered-prefix-only query", m.KeyCols)
	}
}

func TestCompositeCMKey(t *testing.T) {
	rel := correlated(20000, 8)
	m := Build(rel, rel.Schema.ColSet("b", "c"), []value.V{1, 4}, 4)
	pb := query.NewEq("b", 5)
	pc := query.NewRange("c", 10, 20)
	ranges := m.PageRanges(m.Buckets([]*query.Predicate{&pb, &pc}))
	covered := func(page int) bool {
		for _, r := range ranges {
			if page >= r[0] && page < r[1] {
				return true
			}
		}
		return false
	}
	for i, row := range rel.Rows {
		if pb.Matches(row[1]) && pc.Matches(row[2]) && !covered(i/rel.TuplesPerPage()) {
			t.Fatalf("composite CM missed page %d", i/rel.TuplesPerPage())
		}
	}
}

func TestCoversSetSemantics(t *testing.T) {
	m := &CM{KeyCols: []int{2, 5}}
	if !m.Covers([]int{5, 2}) {
		t.Error("Covers should be order-insensitive")
	}
	if m.Covers([]int{2}) || m.Covers([]int{2, 5, 7}) {
		t.Error("Covers should require exact set")
	}
}

// TestDeriveMatchesBuild verifies the CM Designer's one-scan width sweep:
// deriving a coarser bucketing from the exact CM must reproduce a fresh
// Build bit for bit (same pairs, sizes and lookup results).
func TestDeriveMatchesBuild(t *testing.T) {
	rel := correlated(20000, 9)
	for _, cols := range [][]int{rel.Schema.ColSet("b"), rel.Schema.ColSet("b", "c")} {
		base := Build(rel, cols, onesFor(cols), 4)
		for _, w := range []value.V{1, 2, 8, 64} {
			widths := make([]value.V, len(cols))
			for i := range widths {
				widths[i] = w
			}
			built := Build(rel, cols, widths, 4)
			derived := Derive(base, widths)
			if built.NumPairs() != derived.NumPairs() {
				t.Fatalf("cols=%v w=%d: %d pairs built vs %d derived", cols, w, built.NumPairs(), derived.NumPairs())
			}
			if built.Bytes() != derived.Bytes() {
				t.Errorf("cols=%v w=%d: bytes %d vs %d", cols, w, built.Bytes(), derived.Bytes())
			}
			if !reflect.DeepEqual(built.keys, derived.keys) || !reflect.DeepEqual(built.buckets, derived.buckets) {
				t.Fatalf("cols=%v w=%d: derived pairs differ from built", cols, w)
			}
		}
	}
}

func onesFor(cols []int) []value.V {
	ones := make([]value.V, len(cols))
	for i := range ones {
		ones[i] = 1
	}
	return ones
}

// TestPairCollectorAlternatingDuplicates drives the sort-based dedup with
// non-consecutive repeats (which the run check cannot catch) and verifies
// the final pair set is distinct and sorted.
func TestPairCollectorAlternatingDuplicates(t *testing.T) {
	pc := newPairCollector(1)
	seq := []struct {
		k value.V
		b int32
	}{{1, 0}, {2, 0}, {1, 0}, {2, 0}, {1, 1}, {1, 1}, {2, 1}, {1, 1}}
	for _, s := range seq {
		pc.key[0] = s.k
		pc.add(s.b)
	}
	pc.flush() // mid-stream: the (1,1) after it repeats across runs
	pc.key[0] = 1
	pc.add(1)
	keys, buckets := pc.finish()
	if !reflect.DeepEqual(keys, []value.V{1, 1, 2, 2}) || !reflect.DeepEqual(buckets, []int32{0, 1, 0, 1}) {
		t.Fatalf("got keys %v buckets %v, want (1,0) (1,1) (2,0) (2,1)", keys, buckets)
	}
}

// referencePairs is the map-based distinct-pair builder, kept as the
// differential reference for Build and Derive: one map insert per row,
// then a reflective sort of the distinct pairs.
func referencePairs(rel *storage.Relation, keyCols []int, widths []value.V, pagesPerBucket int) (keys []value.V, buckets []int32) {
	type pair struct {
		key    []value.V
		bucket int32
	}
	rowsPerBucket := rel.TuplesPerPage() * pagesPerBucket
	seen := make(map[string]bool)
	var pairs []pair
	for i, row := range rel.Rows {
		p := pair{key: make([]value.V, len(keyCols)), bucket: int32(i / rowsPerBucket)}
		for j, c := range keyCols {
			p.key[j] = BucketValue(row[c], widths[j])
		}
		if id := fmt.Sprint(p.key, p.bucket); !seen[id] {
			seen[id] = true
			pairs = append(pairs, p)
		}
	}
	sort.Slice(pairs, func(i, j int) bool {
		if c := value.CompareKeys(pairs[i].key, pairs[j].key); c != 0 {
			return c < 0
		}
		return pairs[i].bucket < pairs[j].bucket
	})
	keys, buckets = []value.V{}, make([]int32, len(pairs))
	for i, p := range pairs {
		keys = append(keys, p.key...)
		buckets[i] = p.bucket
	}
	return keys, buckets
}

// TestBuildMatchesMapReference checks Build and Derive against the
// reference on seeded relations: keys that follow the clustered order
// (few pairs per bucket), keys that oppose it (every bucket sees every
// value) and independent ones, negative values, key lengths 1-4, sizes
// around one clustered bucket, and widths 1, 4 and 64.
func TestBuildMatchesMapReference(t *testing.T) {
	names := []string{"clu", "with", "against", "rand", "wide"}
	cols := make([]schema.Column, len(names))
	for i, n := range names {
		cols[i] = schema.Column{Name: n, ByteSize: 8}
	}
	s := schema.New(cols...)
	const pagesPerBucket = 2
	rowsPerBucket := storage.PageSize / s.RowBytes() * pagesPerBucket
	rng := rand.New(rand.NewSource(5))
	for _, n := range []int{0, 1, rowsPerBucket - 1, rowsPerBucket, rowsPerBucket + 1, 20 * rowsPerBucket} {
		rows := make([]value.Row, n)
		for i := range rows {
			clu := value.V(rng.Intn(400) - 200)
			rows[i] = value.Row{clu, clu / 7, value.V(i%13 - 6), value.V(rng.Intn(9) - 4), value.V(rng.Intn(5000) - 2500)}
		}
		rel := storage.NewRelation("t", s, []int{0}, rows)
		for _, keyCols := range [][]int{{1}, {2}, {3}, {4}, {1, 3}, {2, 1}, {4, 2, 3}, {3, 2, 1, 4}} {
			base := Build(rel, keyCols, onesFor(keyCols), pagesPerBucket)
			for _, w := range []value.V{1, 4, 64} {
				widths := make([]value.V, len(keyCols))
				for i := range widths {
					widths[i] = w
				}
				wantKeys, wantBuckets := referencePairs(rel, keyCols, widths, pagesPerBucket)
				for name, m := range map[string]*CM{"Build": Build(rel, keyCols, widths, pagesPerBucket), "Derive": Derive(base, widths)} {
					if !reflect.DeepEqual(m.keys, wantKeys) || !reflect.DeepEqual(m.buckets, wantBuckets) {
						t.Fatalf("n=%d cols=%v w=%d: %s has %d pairs, the reference %d, or they differ",
							n, keyCols, w, name, m.NumPairs(), len(wantBuckets))
					}
				}
			}
		}
	}
}
