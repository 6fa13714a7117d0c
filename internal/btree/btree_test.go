package btree

import (
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"testing"
	"testing/quick"

	"coradd/internal/schema"
	"coradd/internal/storage"
	"coradd/internal/value"
)

func buildRandom(n int, keyRange int, seed int64) (*Tree, []Entry) {
	rng := rand.New(rand.NewSource(seed))
	entries := make([]Entry, n)
	for i := range entries {
		entries[i] = Entry{Key: []value.V{value.V(rng.Intn(keyRange))}, RID: int32(i)}
	}
	ref := append([]Entry(nil), entries...)
	return Build(entries, 4), ref
}

func TestRangeRIDsMatchesLinearScan(t *testing.T) {
	tree, ref := buildRandom(5000, 200, 1)
	prop := func(a, b uint8) bool {
		lo, hi := value.V(a), value.V(a)+value.V(b%20)
		got, _ := tree.RangeRIDs([]value.V{lo}, []value.V{hi})
		want := map[int32]bool{}
		for _, e := range ref {
			if e.Key[0] >= lo && e.Key[0] <= hi {
				want[e.RID] = true
			}
		}
		if len(got) != len(want) {
			return false
		}
		for _, rid := range got {
			if !want[rid] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestLookupExact(t *testing.T) {
	entries := []Entry{
		{Key: []value.V{5}, RID: 0},
		{Key: []value.V{5}, RID: 1},
		{Key: []value.V{7}, RID: 2},
	}
	tree := Build(entries, 4)
	rids, io := tree.LookupRIDs([]value.V{5})
	if len(rids) != 2 {
		t.Errorf("lookup(5) = %v", rids)
	}
	if io.Seeks != 1 {
		t.Errorf("lookup seeks = %d, want 1", io.Seeks)
	}
	rids, _ = tree.LookupRIDs([]value.V{6})
	if len(rids) != 0 {
		t.Errorf("lookup(6) = %v, want empty", rids)
	}
}

func TestCompositeKeyPrefixSemantics(t *testing.T) {
	entries := []Entry{
		{Key: []value.V{1, 10}, RID: 0},
		{Key: []value.V{1, 20}, RID: 1},
		{Key: []value.V{2, 5}, RID: 2},
	}
	tree := Build(entries, 8)
	rids, _ := tree.RangeRIDs([]value.V{1}, []value.V{1})
	if len(rids) != 2 {
		t.Errorf("prefix range on first attr = %v, want 2 entries", rids)
	}
	rids, _ = tree.RangeRIDs([]value.V{1, 20}, []value.V{2, 5})
	if len(rids) != 2 {
		t.Errorf("composite range = %v, want RIDs 1,2", rids)
	}
}

func TestHeightGrowsWithSize(t *testing.T) {
	small, _ := buildRandom(100, 50, 2)
	big, _ := buildRandom(500000, 50, 3)
	if small.Height() > big.Height() {
		t.Errorf("height(100)=%d > height(500k)=%d", small.Height(), big.Height())
	}
	if big.Height() < 2 {
		t.Errorf("500k-entry tree height = %d, want ≥ 2", big.Height())
	}
}

func TestPagesAccountLeafAndInner(t *testing.T) {
	tree, _ := buildRandom(100000, 1000, 4)
	if tree.Pages() <= tree.leafPages {
		t.Errorf("Pages() = %d must exceed leaf pages %d for a big tree", tree.Pages(), tree.leafPages)
	}
	if tree.Bytes() != int64(tree.Pages())*storage.PageSize {
		t.Error("Bytes != Pages*PageSize")
	}
}

func TestEstimateBytesMatchesBuild(t *testing.T) {
	for _, n := range []int{10, 1000, 100000} {
		tree, _ := buildRandom(n, 100, int64(n))
		est := EstimateBytes(n, 4)
		if est != tree.Bytes() {
			t.Errorf("EstimateBytes(%d) = %d, built = %d", n, est, tree.Bytes())
		}
	}
}

func TestEstimateHeightMonotone(t *testing.T) {
	prev := 0
	for _, pages := range []int{1, 10, 1000, 100000, 10000000} {
		h := EstimateHeight(pages, 8)
		if h < prev {
			t.Errorf("EstimateHeight(%d) = %d decreased", pages, h)
		}
		prev = h
	}
	if EstimateHeight(1, 8) != 1 {
		t.Errorf("single-page height = %d, want 1", EstimateHeight(1, 8))
	}
}

func TestBuildFromRelation(t *testing.T) {
	s := schema.New(
		schema.Column{Name: "a", ByteSize: 4},
		schema.Column{Name: "b", ByteSize: 4},
	)
	rows := []value.Row{{3, 0}, {1, 1}, {2, 2}}
	rel := storage.NewRelation("t", s, s.ColSet("b"), rows)
	tree := BuildFromRelation(rel, s.ColSet("a"))
	rids, _ := tree.RangeRIDs([]value.V{1}, []value.V{2})
	if len(rids) != 2 {
		t.Errorf("range [1,2] = %v", rids)
	}
	if tree.NumEntries() != 3 {
		t.Errorf("NumEntries = %d", tree.NumEntries())
	}
}

func TestIOChargesLeafSpan(t *testing.T) {
	tree, _ := buildRandom(200000, 10, 5)
	_, narrow := tree.RangeRIDs([]value.V{3}, []value.V{3})
	_, wide := tree.RangeRIDs([]value.V{0}, []value.V{9})
	if wide.PagesRead <= narrow.PagesRead {
		t.Errorf("wide range pages %d not > narrow %d", wide.PagesRead, narrow.PagesRead)
	}
}

func TestEmptyTree(t *testing.T) {
	tree := Build(nil, 4)
	rids, _ := tree.RangeRIDs([]value.V{0}, []value.V{100})
	if len(rids) != 0 {
		t.Errorf("empty tree returned %v", rids)
	}
	if tree.Pages() < 1 {
		t.Error("empty tree must still occupy a page")
	}
}

// referenceEntries is the pre-arena bulk load's entry order, kept as the
// differential reference: a key allocated per row, then a reflective
// stable sort by key and RID.
func referenceEntries(rel *storage.Relation, cols []int) []Entry {
	entries := make([]Entry, len(rel.Rows))
	for i, row := range rel.Rows {
		key := make([]value.V, len(cols))
		for j, c := range cols {
			key[j] = row[c]
		}
		entries[i] = Entry{Key: key, RID: int32(i)}
	}
	sort.SliceStable(entries, func(i, j int) bool {
		c := value.CompareKeys(entries[i].Key, entries[j].Key)
		if c != 0 {
			return c < 0
		}
		return entries[i].RID < entries[j].RID
	})
	return entries
}

func TestBuildEntryOrderMatchesReference(t *testing.T) {
	s := schema.New(
		schema.Column{Name: "a", ByteSize: 4},
		schema.Column{Name: "b", ByteSize: 4},
		schema.Column{Name: "c", ByteSize: 4},
	)
	rng := rand.New(rand.NewSource(11))
	for _, n := range []int{0, 1, 2, 1000} {
		rows := make([]value.Row, n)
		for i := range rows {
			rows[i] = value.Row{value.V(rng.Intn(7) - 3), value.V(rng.Intn(3)), value.V(i)}
		}
		rel := storage.NewRelation("t", s, s.ColSet("c"), rows)
		for _, cols := range [][]int{{0}, {1, 0}, {2}, {0, 1, 2}} {
			want := referenceEntries(rel, cols)
			if got := BuildFromRelation(rel, cols).entries; !reflect.DeepEqual(got, want) {
				t.Fatalf("n=%d cols=%v: BuildFromRelation entry order differs from the reference", n, cols)
			}
			shuffled := slices.Clone(want)
			rng.Shuffle(n, func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
			if got := Build(shuffled, 4).entries; !reflect.DeepEqual(got, want) {
				t.Fatalf("n=%d cols=%v: Build entry order differs from the reference", n, cols)
			}
		}
	}
}
