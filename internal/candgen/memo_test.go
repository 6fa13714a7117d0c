package candgen

import (
	"reflect"
	"slices"
	"testing"

	"coradd/internal/costmodel"
	"coradd/internal/ssb"
	"coradd/internal/stats"
	"coradd/internal/storage"
)

// ssbGen builds a generator over a small SSB fact table and its 13
// queries, configured like the quick experiment scale.
func ssbGen(t testing.TB, rows int) *Generator {
	t.Helper()
	rel := ssb.Generate(ssb.Config{Rows: rows, Customers: 1000, Suppliers: 200, Parts: 1000, Seed: 42})
	st := stats.New(rel, 1024, 43)
	cfg := DefaultConfig()
	cfg.Alphas = []float64{0, 0.25}
	cfg.Restarts = 2
	cfg.MaxInterleavings = 16
	g := New(st, costmodel.NewAware(st, storage.DefaultDiskParams()), ssb.Queries(), cfg)
	g.PKCols = ssb.PKCols(rel.Schema)
	return g
}

// TestClusterMemoMatchesFresh is the clustering memo's differential test.
// A generator warmed by Generate must return, for every group Generate
// visits and for the feedback expansions of chosen designs (each missing
// query added, each member dropped, t doubled and quadrupled), the
// clusterings and designs — names included — of a generator that has
// never clustered before.
func TestClusterMemoMatchesFresh(t *testing.T) {
	warm := ssbGen(t, 20_000)
	fresh := func() *Generator {
		f := New(warm.St, warm.Model, warm.W, warm.Cfg)
		f.PKCols, f.nameSeq = warm.PKCols, warm.nameSeq
		return f
	}
	groups := warm.QueryGroups()
	pool := warm.Generate()
	if len(warm.clusterMem) == 0 {
		t.Fatal("Generate left the clustering memo empty")
	}

	all := make([]int, len(warm.W))
	for i := range all {
		all[i] = i
	}
	allCols := make([]int, len(warm.St.Rel.Schema.Columns))
	for i := range allCols {
		allCols[i] = i
	}
	type call struct {
		group, cols []int
		t           int
	}
	calls := []call{{all, allCols, warm.Cfg.T}}
	for _, grp := range groups {
		calls = append(calls, call{grp, warm.GroupCols(grp), warm.Cfg.T})
	}
	// Feedback expansions of a few chosen designs: multi-query ones from
	// the pool, in pool order.
	var chosen [][]int
	for _, d := range pool {
		if len(d.Queries) >= 2 && len(chosen) < 4 {
			chosen = append(chosen, d.Queries)
		}
	}
	if len(chosen) == 0 {
		t.Fatal("no multi-query design to expand")
	}
	for _, grp := range chosen {
		for qi := range warm.W {
			if !slices.Contains(grp, qi) {
				g := append(slices.Clone(grp), qi)
				slices.Sort(g)
				calls = append(calls, call{g, warm.GroupCols(g), warm.Cfg.T})
			}
		}
		for i := range grp {
			g := slices.Delete(slices.Clone(grp), i, i+1)
			calls = append(calls, call{g, warm.GroupCols(g), warm.Cfg.T})
		}
		for _, tv := range []int{2 * warm.Cfg.T, 4 * warm.Cfg.T} {
			calls = append(calls, call{grp, warm.GroupCols(grp), tv})
		}
	}

	for i, c := range calls {
		if got, want := warm.DesignClusterings(c.group, c.cols, c.t), fresh().DesignClusterings(c.group, c.cols, c.t); !reflect.DeepEqual(got, want) {
			t.Fatalf("call %d: group %v t=%d: warmed %v, fresh %v", i, c.group, c.t, got, want)
		}
		if !slices.Equal(c.cols, warm.GroupCols(c.group)) {
			continue
		}
		f := fresh()
		want := f.GroupDesigns(c.group, c.t)
		if got := warm.GroupDesigns(c.group, c.t); !reflect.DeepEqual(got, want) {
			t.Fatalf("call %d: group %v t=%d: warmed designs %v, fresh %v", i, c.group, c.t, got, want)
		}
		if warm.nameSeq != f.nameSeq {
			t.Fatalf("call %d: name sequence %d, fresh %d", i, warm.nameSeq, f.nameSeq)
		}
	}
	t.Logf("%d calls over %d memo entries", len(calls), len(warm.clusterMem))
}
