package server

import (
	"encoding/json"
	"testing"

	"coradd/internal/adapt"
	"coradd/internal/designer"
	"coradd/internal/exec"
	"coradd/internal/query"
)

// FuzzResolve drives /query's body handling below HTTP: any body must
// either be rejected by resolve or execute, or be served — and a served
// query must return exactly the answer a sequential scan of the base
// relation gives. Nothing may panic.
func FuzzResolve(f *testing.F) {
	bigIn := make([]int, 10_000)
	for i := range bigIn {
		bigIn[i] = 19920101 + i
	}
	inList, _ := json.Marshal(bigIn)
	for _, seed := range []string{
		// Catalog references, with zero, negative and huge weights.
		`{"name":"Q1.1"}`,
		`{"name":"Q2.1","weight":0}`,
		`{"name":"Q3.2","weight":-4}`,
		`{"name":"Q4.1","weight":1e308}`,
		`{"name":"Q9.9"}`,
		// Unknown column names: predicate, target, aggregate.
		`{"name":"u1","predicates":[{"Col":"no_such_col","Op":0,"Lo":1,"Hi":1}],"aggcol":"revenue"}`,
		`{"name":"u2","predicates":[{"Col":"discount","Op":0,"Lo":1,"Hi":1}],"targets":["ghost"],"aggcol":"revenue"}`,
		`{"name":"u3","predicates":[{"Col":"discount","Op":0,"Lo":1,"Hi":1}],"aggcol":"ghost"}`,
		// A 10 000-element IN list.
		`{"name":"big","predicates":[{"Col":"orderdate","Op":2,"Set":` + string(inList) + `}],"aggcol":"revenue"}`,
		// IN lists that are empty, unsorted or repeat a value.
		`{"name":"e","predicates":[{"Col":"discount","Op":2,"Set":[]}],"aggcol":"revenue"}`,
		`{"name":"d","predicates":[{"Col":"year","Op":2,"Set":[1994,1993,1993]}],"aggcol":"revenue"}`,
		// Duplicate predicates on one column.
		`{"name":"dup","predicates":[{"Col":"discount","Op":1,"Lo":1,"Hi":3},{"Col":"discount","Op":1,"Lo":2,"Hi":5}],"aggcol":"revenue"}`,
		// A catalog name mixed with predicates: a full document named Q1.1.
		`{"name":"Q1.1","predicates":[{"Col":"year","Op":0,"Lo":1993,"Hi":1993}],"aggcol":"revenue"}`,
		// Unknown operator, inverted range.
		`{"name":"op","predicates":[{"Col":"quantity","Op":7,"Lo":1,"Hi":9}],"aggcol":"revenue"}`,
		`{"name":"inv","predicates":[{"Col":"quantity","Op":1,"Lo":30,"Hi":5}],"aggcol":"revenue"}`,
		// Non-object JSON and non-JSON.
		`[1,2,3]`, `"Q1.1"`, `null`, `42`, `true`, ``, `{`,
	} {
		f.Add([]byte(seed))
	}

	s := attached(f)
	base := exec.NewObject(s.cfg.Common.St.Rel)

	f.Fuzz(func(t *testing.T, body []byte) {
		q, err := s.resolve(body)
		if err != nil {
			return
		}
		if _, _, _, err := s.execute(q); err != nil {
			return
		}
		got, err := served(s, q)
		if err != nil {
			t.Fatalf("executed, but the served plan fails on replay: %v", err)
		}
		want, err := exec.Execute(base, q, exec.PlanSpec{Kind: exec.SeqScan})
		if err != nil {
			t.Fatalf("executed, but the base relation cannot scan it: %v", err)
		}
		if got.Sum != want.Sum || got.Rows != want.Rows {
			t.Fatalf("%s: served plan %v answers sum=%d rows=%d, base seq scan sum=%d rows=%d",
				q, got.Plan.Kind, got.Sum, got.Rows, want.Sum, want.Rows)
		}
	})
}

// attached returns a server attached to the shared test environment but
// not started: resolve and execute run, and observations just queue.
func attached(tb testing.TB) *Server {
	common, initial, acfg := testEnv(tb)
	s := NewStarting(Config{Adapt: acfg})
	ctl, err := adapt.New(common, initial, s.AdaptConfig())
	if err != nil {
		tb.Fatal(err)
	}
	s.Attach(common, ctl)
	return s
}

// served runs q the way the serving path prices it
// (designer.MeasureTemplateTraced on the current snapshot) and returns the
// routed plan's result.
func served(s *Server, q *query.Query) (exec.Result, error) {
	sn := s.snap.Load()
	w := query.Workload{q}
	ev := designer.NewEvaluator(s.cfg.Common.St.Rel, w, s.cfg.Common.Disk)
	ev.Cache = s.cfg.Adapt.Cache
	m, err := ev.Materialize(designer.Reroute(sn.design, s.ctl.Model(), w))
	if err != nil {
		return exec.Result{}, err
	}
	return exec.Execute(m.Plan[0].Object, q, m.Plan[0].Spec)
}

// TestResolveNames pins how resolve treats names: a catalog reference
// keeps the catalog query and takes only a positive weight from the body,
// and a name keeps meaning one template — a document reusing a catalog
// name or an earlier document's name for a different template, or naming
// nothing, is rejected.
func TestResolveNames(t *testing.T) {
	s := attached(t)
	q11 := s.catalog["Q1.1"]
	for _, tc := range []struct {
		body string
		want float64
	}{
		{`{"name":"Q1.1"}`, q11.Weight},
		{`{"name":"Q1.1","weight":0}`, q11.Weight},
		{`{"name":"Q1.1","weight":-2}`, q11.Weight},
		{`{"name":"Q1.1","weight":3.5}`, 3.5},
	} {
		q, err := s.resolve([]byte(tc.body))
		if err != nil {
			t.Fatalf("%s: %v", tc.body, err)
		}
		if q.Weight != tc.want || len(q.Predicates) != len(q11.Predicates) {
			t.Errorf("%s: weight %v with %d predicates, want weight %v", tc.body, q.Weight, len(q.Predicates), tc.want)
		}
	}
	doc := func(name, col string) []byte {
		return []byte(`{"name":"` + name + `","predicates":[{"Col":"` + col + `","Op":0,"Lo":1,"Hi":1}],"aggcol":"revenue"}`)
	}
	if _, err := s.resolve(doc("mine", "discount")); err != nil {
		t.Fatalf("first document named mine: %v", err)
	}
	if _, err := s.resolve(doc("mine", "discount")); err != nil {
		t.Fatalf("same template, same name: %v", err)
	}
	for _, body := range [][]byte{
		doc("mine", "quantity"), // an earlier document's name, another template
		doc("Q1.1", "quantity"), // a catalog name, another template
		doc("", "quantity"),     // no name
		[]byte(`{"name":"Q9.9"}`),
	} {
		if _, err := s.resolve(body); err == nil {
			t.Errorf("%s accepted", body)
		}
	}
}
