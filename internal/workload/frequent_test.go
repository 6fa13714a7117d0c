package workload

import (
	"reflect"
	"strings"
	"testing"

	"coradd/internal/query"
)

// predQ builds a query predicated on the given columns.
func predQ(name string, cols ...string) *query.Query {
	q := &query.Query{Name: name, Fact: "f", Targets: []string{"z"}, AggCol: "rev"}
	for _, c := range cols {
		q.Predicates = append(q.Predicates, query.NewEq(c, 1))
	}
	return q
}

func TestFrequentSetsAprioriAndOrdering(t *testing.T) {
	clk := &fakeClock{}
	m := mustNew(t, Config{}, clk.now)
	// 4× {a,b}, 4× {a,b,c}, 2× {d}: support(a)=support(b)=support(ab)=0.8,
	// support(abc)=0.4, support(d)=0.2. All observations at one instant so
	// decay cannot skew shares.
	for i := 0; i < 4; i++ {
		m.Observe(predQ("ab", "a", "b"))
		m.Observe(predQ("abc", "a", "b", "c"))
	}
	m.Observe(predQ("d", "d"))
	m.Observe(predQ("d", "d"))

	sets := m.FrequentSets(0.3, 3)
	got := map[string]float64{}
	for _, s := range sets {
		got[strings.Join(s.Cols, ",")] = s.Share
	}
	for _, want := range []struct {
		key   string
		share float64
	}{{"a", 0.8}, {"b", 0.8}, {"a,b", 0.8}, {"c", 0.4}, {"a,c", 0.4}, {"b,c", 0.4}, {"a,b,c", 0.4}} {
		if sh, ok := got[want.key]; !ok || sh < want.share-1e-9 || sh > want.share+1e-9 {
			t.Fatalf("set %q: got share %v (present=%v), want %v\nall: %v", want.key, sh, ok, want.share, got)
		}
	}
	if _, ok := got["d"]; ok {
		t.Fatal("infrequent singleton d (share 0.2) mined at minShare 0.3")
	}
	// Ranking: share desc, then size desc — the 2-set {a,b} precedes its
	// singletons, and every 0.8-share set precedes the 0.4-share ones.
	if want := "a,b"; strings.Join(sets[0].Cols, ",") != want {
		t.Fatalf("first set %v, want %s", sets[0].Cols, want)
	}
	if sets[len(sets)-1].Share > sets[0].Share {
		t.Fatal("sets not ordered by share descending")
	}
}

func TestFrequentSetsDeterministic(t *testing.T) {
	build := func() []FrequentSet {
		clk := &fakeClock{}
		m := mustNew(t, Config{}, clk.now)
		for i := 0; i < 3; i++ {
			m.Observe(predQ("ab", "a", "b"))
			clk.t += 10
			m.Observe(predQ("bc", "b", "c"))
			clk.t += 5
		}
		return m.FrequentSets(0.2, 3)
	}
	a, b := build(), build()
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("same stream mined different sets:\n%v\n%v", a, b)
	}
}

func TestFrequentSetsMaxSizeAndEmpty(t *testing.T) {
	clk := &fakeClock{}
	m := mustNew(t, Config{}, clk.now)
	if got := m.FrequentSets(0.1, 3); got != nil {
		t.Fatalf("empty monitor mined %v", got)
	}
	m.Observe(predQ("abc", "a", "b", "c"))
	for _, s := range m.FrequentSets(0.1, 2) {
		if len(s.Cols) > 2 {
			t.Fatalf("maxSize 2 emitted %v", s.Cols)
		}
	}
}
