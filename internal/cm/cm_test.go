package cm

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"sort"
	"testing"
	"testing/quick"

	"coradd/internal/btree"
	"coradd/internal/query"
	"coradd/internal/schema"
	"coradd/internal/ssb"
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

func onesFor(cols []int) []value.V { return ones(len(cols)) }

// TestPairKernelAlternatingDuplicates drives the dedup kernel with
// non-consecutive repeats (which the repeat skip cannot catch) and a pair
// repeated across two runs, on a dense key and on keys only a rank can
// code, and verifies the pair set is distinct and sorted.
func TestPairKernelAlternatingDuplicates(t *testing.T) {
	for _, lo := range []value.V{1, math.MinInt64, math.MaxInt64 - 1} {
		a, b := lo, lo+1
		if lo == math.MinInt64 {
			b = math.MaxInt64 // the span of MinInt64..MaxInt64 overflows a dense code
		}
		// Run 0 is {a, b, a, b}, run 1 {a, a, b, a, a}.
		col := []value.V{a, b, a, b, a, a, b, a, a}
		var pk pairKernel
		keys, buckets := pk.distinct([][]value.V{col}, []int{0, 4, 9})
		if !reflect.DeepEqual(keys, []value.V{a, a, b, b}) || !reflect.DeepEqual(buckets, []int32{0, 1, 0, 1}) {
			t.Fatalf("keys %v: got keys %v buckets %v, want (a,0) (a,1) (b,0) (b,1)", []value.V{a, b}, keys, buckets)
		}
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

// TestBucketMayMatchAtInt64Ends checks the buckets of the int64 domain's
// ends, where b*width and b*width+width-1 overflow unless the width is a
// power of two: the bucket of MinInt64 or MaxInt64 may match an equality,
// a range and an IN on that value, its neighbour bucket may not match the
// equality or the IN, and a bucket past the domain holds no value at all.
func TestBucketMayMatchAtInt64Ends(t *testing.T) {
	for _, tc := range []struct {
		v, step value.V // step leads from the end value into the domain
	}{{math.MinInt64, 1}, {math.MaxInt64, -1}} {
		for _, width := range []value.V{2, 3, 7, 64} {
			b := BucketValue(tc.v, width)
			inner := tc.v + tc.step*width // a value in the neighbour bucket
			eq, in := query.NewEq("k", tc.v), query.NewIn("k", tc.v)
			rng := query.NewRange("k", min(tc.v, tc.v+tc.step), max(tc.v, tc.v+tc.step))
			for _, p := range []*query.Predicate{&eq, &in, &rng} {
				if !BucketMayMatch(b, width, p) {
					t.Errorf("v=%d width=%d: bucket %d does not admit %v", tc.v, width, b, p)
				}
				if nb := BucketValue(inner, width); p != &rng && BucketMayMatch(nb, width, p) {
					t.Errorf("v=%d width=%d: neighbour bucket %d admits %v", tc.v, width, nb, p)
				}
			}
			if BucketMayMatch(b-tc.step, width, &rng) {
				t.Errorf("v=%d width=%d: bucket %d past the domain admits %v", tc.v, width, b-tc.step, &rng)
			}
		}
	}
}

// fuzzBytes hands out the fuzzer's bytes one at a time, zeros once spent.
type fuzzBytes []byte

func (b *fuzzBytes) next() int {
	if len(*b) == 0 {
		return 0
	}
	v := (*b)[0]
	*b = (*b)[1:]
	return int(v)
}

// cmKinds draw a key column's value from a row's clustered value clu, its
// position i and 64 bits u, which are random or, for the rows that follow
// the clustered key, a hash of clu. The first four are the shapes of
// TestBuildMatchesMapReference; the others sit at the int64 ends or span
// them, so their keys are coded by rank instead of by offset.
var cmKinds = []func(clu value.V, i int, u uint64) value.V{
	func(clu value.V, _ int, _ uint64) value.V { return clu / 7 },              // follows the clustered key
	func(_ value.V, i int, _ uint64) value.V { return value.V(i%13 - 6) },      // cycles against it
	func(_ value.V, _ int, u uint64) value.V { return value.V(u%9) - 4 },       // few values
	func(_ value.V, _ int, u uint64) value.V { return value.V(u%5000) - 2500 }, // many values
	func(_ value.V, _ int, u uint64) value.V { return math.MaxInt64 - value.V(u%50) },
	func(_ value.V, _ int, u uint64) value.V { return math.MinInt64 + value.V(u%50) },
	func(_ value.V, _ int, u uint64) value.V { // both ends
		if u&1 == 0 {
			return math.MinInt64 + value.V(u>>1%3)
		}
		return math.MaxInt64 - value.V(u>>1%3)
	},
	func(_ value.V, _ int, u uint64) value.V { return value.V(u) }, // the whole int64 range
}

// decodeCMCase turns bytes into a relation clustered on column 0, whose
// four other columns each draw from one of cmKinds, a dialled share of
// rows (0-4 quarters) as a function of the clustered value; a clustered
// bucket of 1-3 pages and up to three buckets' rows and one more; a CM key
// of 1-4 of those columns in some order with widths from {1, 2, 3, 64};
// and one predicate per key column (none, Eq, Range or IN) on values of
// the relation's rows.
func decodeCMCase(data []byte) (rel *storage.Relation, keyCols []int, widths []value.V, pagesPerBucket int, preds []*query.Predicate) {
	in := fuzzBytes(data)
	names := []string{"clu", "k1", "k2", "k3", "k4"}
	cols := make([]schema.Column, len(names))
	for i, n := range names {
		cols[i] = schema.Column{Name: n, ByteSize: 8}
	}
	s := schema.New(cols...)
	pagesPerBucket = 1 + in.next()%3
	rowsPerBucket := storage.PageSize / s.RowBytes() * pagesPerBucket
	n := (in.next()<<8 | in.next()) % (3*rowsPerBucket + 2)
	follow := in.next() % 5
	rng := rand.New(rand.NewSource(int64(in.next())))
	var kinds [4]int
	for j := range kinds {
		kinds[j] = in.next() % len(cmKinds)
	}
	rows := make([]value.Row, n)
	for i := range rows {
		clu := value.V(rng.Intn(400) - 200)
		u := rng.Uint64()
		if rng.Intn(4) < follow {
			u = uint64(clu) * 0x9E3779B97F4A7C15
		}
		rows[i] = value.Row{clu, 0, 0, 0, 0}
		for j, kind := range kinds {
			rows[i][1+j] = cmKinds[kind](clu, i, u>>(8*j)|u<<(64-8*j))
		}
	}
	rel = storage.NewRelation("t", s, []int{0}, rows)
	keyLen, first, reverse := 1+in.next()%4, in.next(), in.next()%2 == 1
	for j := range keyLen {
		c := (first+j)%4 + 1
		if reverse {
			c = (first-j+4*keyLen)%4 + 1
		}
		keyCols = append(keyCols, c)
	}
	for range keyCols {
		widths = append(widths, []value.V{1, 2, 3, 64}[in.next()%4])
	}
	for _, c := range keyCols {
		kind, r1, r2 := in.next()%4, in.next()*n/256, in.next()*n/256
		if kind == 0 || n == 0 {
			preds = append(preds, nil)
			continue
		}
		name := s.Columns[c].Name
		v1, v2 := rel.Cols[c][r1], rel.Cols[c][r2]
		p := map[int]query.Predicate{1: query.NewEq(name, v1), 2: query.NewRange(name, min(v1, v2), max(v1, v2)), 3: query.NewIn(name, v1, v2)}[kind]
		preds = append(preds, &p)
	}
	return rel, keyCols, widths, pagesPerBucket, preds
}

// FuzzCMBuild is the CM kernel's differential target: Build, Derive from
// the exact CM, and the exact CM projected onto some of its key columns
// must hold exactly referencePairs' pairs in its order, whether the key is
// coded by offset or by rank, and Buckets may add clustered buckets but
// never miss one holding a matching row.
func FuzzCMBuild(f *testing.F) {
	// TestBuildMatchesMapReference's shapes (kinds 0-3, two pages per
	// bucket, its row counts around one bucket) under keys of 1-4 columns,
	// then keys at the int64 ends or spanning them.
	const rowsPerBucket = 2 * storage.PageSize / 40
	for _, n := range []int{0, 1, rowsPerBucket - 1, rowsPerBucket, rowsPerBucket + 1, 3*rowsPerBucket + 1} {
		for keyLen, widthSel := range []byte{0, 1, 2, 3} {
			f.Add([]byte{1, byte(n >> 8), byte(n), 0, 5, 0, 1, 2, 3, byte(keyLen), byte(keyLen), byte(keyLen % 2),
				widthSel, widthSel, widthSel, widthSel, 1, 7, 0, 2, 30, 200, 3, 1, 250, 0, 0, 0})
		}
	}
	f.Add([]byte{0, 1, 144, 2, 9, 4, 5, 6, 7, 0, 0, 0, 1, 0, 0, 0, 1, 100, 0})
	f.Add([]byte{2, 3, 0, 4, 3, 6, 7, 4, 5, 3, 2, 1, 1, 3, 2, 1, 2, 10, 240, 3, 5, 6, 1, 9, 0, 2, 128, 129})
	f.Add([]byte{0, 0, 200, 0, 1, 7, 7, 7, 7, 1, 0, 0, 3, 3, 1, 50, 0, 2, 0, 255})
	f.Fuzz(func(t *testing.T, data []byte) {
		rel, keyCols, widths, pagesPerBucket, preds := decodeCMCase(data)
		wantKeys, wantBuckets := referencePairs(rel, keyCols, widths, pagesPerBucket)
		base := Build(rel, keyCols, onesFor(keyCols), pagesPerBucket)
		built := Build(rel, keyCols, widths, pagesPerBucket)
		for name, m := range map[string]*CM{"Build": built, "Derive": Derive(base, widths)} {
			if !reflect.DeepEqual(m.keys, wantKeys) || !reflect.DeepEqual(m.buckets, wantBuckets) {
				t.Fatalf("cols=%v widths=%v: %s has %d pairs, the reference %d, or they differ",
					keyCols, widths, name, m.NumPairs(), len(wantBuckets))
			}
		}
		// A chained derive, from a coarser CM whose widths divide the
		// target's (the CM Designer's width sweep), is the same CM.
		var pk pairKernel
		for _, coarse := range []func(w value.V) value.V{
			func(w value.V) value.V { return w / smallestFactor(w) },
			func(w value.V) value.V {
				if w%2 == 0 {
					return 2
				}
				return 1
			},
		} {
			mid := make([]value.V, len(widths))
			for j, w := range widths {
				mid[j] = coarse(w)
			}
			m := pk.derive(Derive(base, mid), identity(len(widths)), widths, base.keyBytes)
			if !reflect.DeepEqual(m.KeyWidths, widths) || !reflect.DeepEqual(m.keys, wantKeys) || !reflect.DeepEqual(m.buckets, wantBuckets) {
				t.Fatalf("cols=%v widths=%v: chained from %v has %d pairs, the reference %d, or they differ",
					keyCols, widths, mid, m.NumPairs(), len(wantBuckets))
			}
		}
		// Each key column alone, and for longer keys the last and first
		// columns reversed, projected from the exact CM.
		var sels [][]int
		for j := range keyCols {
			sels = append(sels, []int{j})
		}
		if len(keyCols) > 2 {
			sels = append(sels, []int{len(keyCols) - 1, 0})
		}
		for _, sel := range sels {
			var subCols []int
			var subWidths []value.V
			for _, j := range sel {
				subCols, subWidths = append(subCols, keyCols[j]), append(subWidths, widths[j])
			}
			wantKeys, wantBuckets := referencePairs(rel, subCols, subWidths, pagesPerBucket)
			m := pk.derive(base, sel, subWidths, rel.Schema.SubsetBytes(subCols))
			if !reflect.DeepEqual(m.KeyCols, subCols) || !reflect.DeepEqual(m.keys, wantKeys) || !reflect.DeepEqual(m.buckets, wantBuckets) {
				t.Fatalf("cols=%v widths=%v: projection onto %v has %d pairs, the reference %d, or they differ",
					keyCols, widths, subCols, m.NumPairs(), len(wantBuckets))
			}
		}
		got := built.Buckets(preds)
		rowsPerBucket := rel.TuplesPerPage() * pagesPerBucket
	rows:
		for i := range rel.NumRows() {
			for j, c := range keyCols {
				if preds[j] != nil && !preds[j].Matches(rel.Cols[c][i]) {
					continue rows
				}
			}
			if _, found := slices.BinarySearch(got, int32(i/rowsPerBucket)); !found {
				t.Fatalf("cols=%v widths=%v preds=%v: row %d matches but its bucket %d is not in %v",
					keyCols, widths, preds, i, i/rowsPerBucket, got)
			}
		}
	})
}

// smallestFactor returns w's least prime factor (1 for w ≤ 1).
func smallestFactor(w value.V) value.V {
	for p := value.V(2); p*p <= w; p++ {
		if w%p == 0 {
			return p
		}
	}
	return max(w, 1)
}

// TestProjectMatchesBuild checks the CM Designer's projection: the exact
// CM of each column of a two-column key, derived from that key's exact CM
// by dropping the other column, is the CM Build makes on the column alone
// (same key, pairs and size), whether the two-column key and the column
// are coded by offset or by rank.
func TestProjectMatchesBuild(t *testing.T) {
	names := []string{"clu", "with", "against", "few", "ends", "full"}
	cols := make([]schema.Column, len(names))
	for i, n := range names {
		cols[i] = schema.Column{Name: n, ByteSize: 8}
	}
	s := schema.New(cols...)
	rng := rand.New(rand.NewSource(3))
	rows := make([]value.Row, 30_000)
	for i := range rows {
		clu, u := value.V(rng.Intn(400)-200), rng.Uint64()
		rows[i] = value.Row{clu, cmKinds[0](clu, i, u), cmKinds[1](clu, i, u), cmKinds[2](clu, i, u>>8),
			cmKinds[6](clu, i, u>>16), cmKinds[7](clu, i, u>>24)}
	}
	rel := storage.NewRelation("t", s, []int{0}, rows)
	// with, against and few code by offset alone and together; ends and
	// full (MinInt64 beside MaxInt64, the whole int64 range) only by rank.
	for _, pair := range [][]int{{1, 2}, {1, 3}, {2, 3}, {1, 4}, {3, 5}, {4, 5}} {
		var pk pairKernel
		base := pk.build(rel, pair, onesFor(pair), 4)
		for j, c := range pair {
			want := Build(rel, []int{c}, []value.V{1}, 4)
			got := pk.derive(base, []int{j}, []value.V{1}, s.SubsetBytes([]int{c}))
			if !reflect.DeepEqual(got.KeyCols, want.KeyCols) || got.Bytes() != want.Bytes() || got.Pages() != want.Pages() {
				t.Fatalf("%v onto %d: key %v, %d bytes; Build: key %v, %d bytes", pair, c, got.KeyCols, got.Bytes(), want.KeyCols, want.Bytes())
			}
			if !reflect.DeepEqual(got.keys, want.keys) || !reflect.DeepEqual(got.buckets, want.buckets) {
				t.Fatalf("%v onto %d: %d projected pairs, %d built, or they differ", pair, c, got.NumPairs(), want.NumPairs())
			}
		}
	}
}

// referenceDesign is the CM Designer's sweep before candidate key sets
// shared row scans: one exact Build per key set, each coarser width
// derived from it, the strictly cheapest CM within the space limit kept in
// enumeration order. Design must return the same CM.
func referenceDesign(rel *storage.Relation, q *query.Query, cfg DesignerConfig) *CM {
	height := btree.EstimateHeight(rel.NumPages(), rel.Schema.SubsetBytes(rel.ClusterKey))
	var best *CM
	bestCost := seqScanCost(rel, cfg.Disk)
	for _, keyCols := range candidateKeyCols(rel, q, cfg.MaxKeyCols) {
		base := Build(rel, keyCols, onesFor(keyCols), cfg.ClusterPagesPerBucket)
		for _, widths := range widthGrid(len(keyCols), cfg.Widths) {
			m := base
			if !allOnes(widths) {
				m = Derive(base, widths)
			}
			if m.Bytes() > cfg.SpaceLimit {
				continue
			}
			if c := lookupCost(rel, m, q, height, cfg.Disk); c < bestCost {
				best, bestCost = m, c
			}
		}
	}
	return best
}

// TestDesignMatchesPerKeySetSweep runs Design, which scans rows only for
// the key sets no larger candidate contains and projects the others, and
// the per-key-set reference over every SSB and augmented SSB query, on
// date- and region-clustered projections of the fact table, at
// GOMAXPROCS 1 (sequential) and 2 (fanned out): the chosen CMs must be
// identical.
func TestDesignMatchesPerKeySetSweep(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	fact := ssb.Generate(ssb.Config{Rows: 60_000, Customers: 1000, Suppliers: 200, Parts: 800, Seed: 11})
	all := make([]int, len(fact.Schema.Columns))
	for i := range all {
		all[i] = i
	}
	queries := append(ssb.Queries(), ssb.AugmentedQueries()...)
	chosen, projected := 0, 0
	for _, key := range [][]string{{ssb.ColOrderDate}, {ssb.ColSRegion, ssb.ColCRegion, ssb.ColPBrand}} {
		rel := fact.Project("mv", all, fact.Schema.ColSet(key...))
		for _, q := range queries {
			cfg := DefaultDesignerConfig()
			want := referenceDesign(rel, q, cfg)
			if want != nil {
				chosen++
			}
			if want != nil && len(want.KeyCols) == 1 && len(candidateKeyCols(rel, q, cfg.MaxKeyCols)) > 1 {
				projected++
			}
			for _, procs := range []int{1, 2} {
				runtime.GOMAXPROCS(procs)
				got := Design(rel, q, cfg)
				if (got == nil) != (want == nil) {
					t.Fatalf("%v, %s, GOMAXPROCS=%d: Design returned %v, the sweep %v", key, q.Name, procs, got, want)
				}
				if got == nil {
					continue
				}
				if !reflect.DeepEqual(got.KeyCols, want.KeyCols) || !reflect.DeepEqual(got.KeyWidths, want.KeyWidths) ||
					!reflect.DeepEqual(got.keys, want.keys) || !reflect.DeepEqual(got.buckets, want.buckets) || got.Bytes() != want.Bytes() {
					t.Fatalf("%v, %s, GOMAXPROCS=%d: Design chose key %v widths %v (%d pairs), the sweep key %v widths %v (%d pairs)",
						key, q.Name, procs, got.KeyCols, got.KeyWidths, got.NumPairs(), want.KeyCols, want.KeyWidths, want.NumPairs())
				}
			}
		}
	}
	t.Logf("%d of %d designs chose a CM, %d a single-column one among several candidates", chosen, 2*len(queries), projected)
	if projected == 0 {
		t.Fatal("no query chose a single-column CM among several candidates: the projection went untested")
	}
}
