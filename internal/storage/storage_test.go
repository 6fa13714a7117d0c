package storage

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"coradd/internal/schema"
	"coradd/internal/value"
)

func testSchema() *schema.Schema {
	return schema.New(
		schema.Column{Name: "k", ByteSize: 4},
		schema.Column{Name: "v", ByteSize: 4},
	)
}

func makeRel(n int, seed int64, key ...string) *Relation {
	s := testSchema()
	rng := rand.New(rand.NewSource(seed))
	rows := make([]value.Row, n)
	for i := range rows {
		rows[i] = value.Row{value.V(rng.Intn(100)), value.V(i)}
	}
	return NewRelation("t", s, s.ColSet(key...), rows)
}

// rowsOf assembles every tuple of rel, in heap order, from its columns.
func rowsOf(rel *Relation) []value.Row {
	rows := make([]value.Row, rel.NumRows())
	for i := range rows {
		rows[i] = rel.Row(i)
	}
	return rows
}

func TestRelationSortedByClusterKey(t *testing.T) {
	rel := makeRel(5000, 1, "k")
	if !sort.SliceIsSorted(rel.Cols[0], func(i, j int) bool { return rel.Cols[0][i] < rel.Cols[0][j] }) {
		t.Fatal("rows not sorted on the clustered key")
	}
	// The compatibility rows follow the columns' cluster order.
	if !reflect.DeepEqual(rel.Rows, rowsOf(rel)) {
		t.Fatal("Rows are not in the columns' order")
	}
}

func TestReclusterStable(t *testing.T) {
	rel := makeRel(1000, 2, "k")
	rel.Recluster(rel.Schema.ColSet("v"))
	for i := 1; i < rel.NumRows(); i++ {
		if rel.Cols[1][i-1] > rel.Cols[1][i] {
			t.Fatalf("recluster on v not sorted at %d", i)
		}
	}
	if !reflect.DeepEqual(rel.Rows, rowsOf(rel)) {
		t.Fatal("Recluster left Rows out of the columns' order")
	}
}

func TestPageMath(t *testing.T) {
	rel := makeRel(10000, 3, "k")
	tpp := rel.TuplesPerPage()
	if tpp != PageSize/8 {
		t.Errorf("TuplesPerPage = %d, want %d", tpp, PageSize/8)
	}
	wantPages := (10000 + tpp - 1) / tpp
	if rel.NumPages() != wantPages {
		t.Errorf("NumPages = %d, want %d", rel.NumPages(), wantPages)
	}
	if rel.HeapBytes() != int64(wantPages)*PageSize {
		t.Errorf("HeapBytes = %d", rel.HeapBytes())
	}
}

// TestSortedRange checks the binary search over a sorted column, over the
// whole heap and inside a sub-range, for every bound pair in and around
// the column's values (empty, single-value and open-ended ranges).
func TestSortedRange(t *testing.T) {
	rel := makeRel(3000, 5, "k")
	k := rel.Cols[0]
	for _, span := range [][2]int{{0, rel.NumRows()}, {700, 1900}, {1000, 1000}} {
		for loV := value.V(-2); loV <= 101; loV += 3 {
			for _, hiV := range []value.V{loV - 1, loV, loV + 10, 1 << 62} {
				lo, hi := rel.SortedRange(0, span[0], span[1], loV, hiV)
				// The first row at or above loV, the first above hiV.
				wantLo, wantHi := span[0], span[0]
				for i := span[0]; i < span[1]; i++ {
					if k[i] < loV {
						wantLo = i + 1
					}
					if k[i] <= hiV {
						wantHi = i + 1
					}
				}
				if lo != wantLo || hi != wantHi {
					t.Fatalf("SortedRange(%v, [%d,%d]) = [%d,%d), want [%d,%d)", span, loV, hiV, lo, hi, wantLo, wantHi)
				}
			}
		}
	}
}

func TestProjectBuildsSortedMV(t *testing.T) {
	rel := makeRel(2000, 6, "k")
	mv := rel.Project("mv", rel.Schema.ColSet("v", "k"), []int{0}) // cluster on v
	if mv.Schema.Columns[0].Name != "v" {
		t.Fatalf("projection order wrong: %v", mv.Schema.Names())
	}
	if !sort.SliceIsSorted(mv.Cols[0], func(i, j int) bool { return mv.Cols[0][i] < mv.Cols[0][j] }) {
		t.Error("MV not sorted on its clustered key")
	}
	if mv.NumRows() != rel.NumRows() || mv.Rows != nil {
		t.Error("MV row count mismatch, or the MV carries compatibility rows")
	}
	// Projection must not alias the base columns.
	mv.Cols[0][0] = -1
	for _, v := range rel.Cols[1] {
		if v == -1 {
			t.Fatal("projection aliased base storage")
		}
	}
}

func TestIOStatsSeconds(t *testing.T) {
	io := IOStats{Seeks: 2, PagesRead: 100}
	p := DiskParams{SeekCost: 0.005, PageReadCost: 0.0001}
	want := 2*0.005 + 100*0.0001
	if got := io.Seconds(p); got != want {
		t.Errorf("Seconds = %v, want %v", got, want)
	}
	var sum IOStats
	sum.Add(io)
	sum.Add(IOStats{Seeks: 1, PagesRead: 1, IndexPagesRead: 1})
	if sum.Seeks != 3 || sum.PagesRead != 101 || sum.IndexPagesRead != 1 {
		t.Errorf("Add broken: %+v", sum)
	}
}

func TestUnclusteredRelationKeepsLoadOrder(t *testing.T) {
	s := testSchema()
	rows := []value.Row{{5, 0}, {1, 1}, {3, 2}}
	rel := NewRelation("t", s, nil, rows)
	if rel.Cols[0][0] != 5 || rel.Cols[0][2] != 3 || rel.Rows[2][0] != 3 {
		t.Error("unclustered relation was reordered")
	}
}

// referenceProject is the pre-arena kernel, kept as the differential
// reference: one allocation per projected row, then a reflective stable
// sort of the row headers.
func referenceProject(rows []value.Row, cols, newKey []int) []value.Row {
	out := make([]value.Row, len(rows))
	for i, src := range rows {
		out[i] = make(value.Row, len(cols))
		for j, c := range cols {
			out[i][j] = src[c]
		}
	}
	if len(newKey) > 0 {
		sort.SliceStable(out, func(i, j int) bool {
			for _, c := range newKey {
				if out[i][c] != out[j][c] {
					return out[i][c] < out[j][c]
				}
			}
			return false
		})
	}
	return out
}

// TestProjectMatchesStableSortReference checks Project and Recluster, row
// for row, against the reference on relations whose keys repeat heavily
// (every other column differs, so a stability slip is visible), with key
// lengths 0-4, negative values and the sizes around a CM bucket boundary.
func TestProjectMatchesStableSortReference(t *testing.T) {
	cols := make([]schema.Column, 6)
	for i := range cols {
		cols[i] = schema.Column{Name: string(rune('a' + i)), ByteSize: 4}
	}
	s := schema.New(cols...)
	rng := rand.New(rand.NewSource(7))
	for _, n := range []int{0, 1, 2, 203, 204, 205, 5000} {
		for keyLen := 0; keyLen <= 4; keyLen++ {
			rows := make([]value.Row, n)
			for i := range rows {
				rows[i] = value.Row{value.V(rng.Intn(5) - 2), value.V(rng.Intn(3) - 1), value.V(rng.Intn(2)),
					value.V(rng.Intn(4)), value.V(i), value.V(rng.Int63())}
			}
			if keyLen == 4 && n == 5000 { // already sorted: the no-move path
				rows = referenceProject(rows, []int{0, 1, 2, 3, 4, 5}, []int{3, 1, 0, 2})
			}
			proj := rng.Perm(6)[:4+rng.Intn(3)]
			for len(proj) < keyLen {
				proj = rng.Perm(6)
			}
			newKey := rng.Perm(len(proj))[:keyLen]
			rel := NewRelation("t", s, nil, rows)
			got := rel.Project("p", proj, newKey)
			if want := referenceProject(rows, proj, newKey); !reflect.DeepEqual(rowsOf(got), want) {
				t.Fatalf("n=%d cols=%v key=%v: Project differs from the stable-sort reference", n, proj, newKey)
			}
			if !reflect.DeepEqual(got.ClusterKey, newKey) || len(got.Schema.Columns) != len(proj) {
				t.Fatalf("n=%d: projected relation has key %v over %d columns", n, got.ClusterKey, len(got.Schema.Columns))
			}
			key := []int{3, 1, 0, 2}[:keyLen]
			want := referenceProject(rows, []int{0, 1, 2, 3, 4, 5}, key)
			rel.Recluster(key)
			if !reflect.DeepEqual(rowsOf(rel), want) || !reflect.DeepEqual(rel.Rows, want) {
				t.Fatalf("n=%d key=%v: Recluster differs from the stable-sort reference", n, key)
			}
		}
	}
}
