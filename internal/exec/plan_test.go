package exec

import (
	"math/rand"
	"testing"

	"coradd/internal/cm"
	"coradd/internal/corridx"
	"coradd/internal/query"
	"coradd/internal/schema"
	"coradd/internal/storage"
	"coradd/internal/value"
)

// referenceScan is the row-at-a-time executor the column kernel replaced,
// kept as the slow reference: every tuple assembled as a row, matched by
// Compiled.MatchesRow, its aggregate summed.
func referenceScan(rel *storage.Relation, q *query.Query) (sum int64, rows int) {
	cq := query.MustCompile(q, rel.Schema.Col)
	for i := range rel.NumRows() {
		row := rel.Row(i)
		if cq.MatchesRow(row) {
			rows++
			if cq.Agg >= 0 {
				sum += row[cq.Agg]
			}
		}
	}
	return sum, rows
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

// decodePlanCase turns bytes into a small object and a query over it: up
// to 3 000 rows whose page size (the payload column's width) is drawn too,
// so row ranges start and end off the kernel's batch boundaries; a
// clustered key (possibly none), one B+Tree, one CM, a correlation index
// when the heap is clustered; and a query mixing Eq, Range and In
// predicates in any order, possibly with none and without an aggregate.
func decodePlanCase(data []byte) (*Object, *query.Query) {
	in := fuzzBytes(data)
	n := (in.next()<<8 | in.next()) % 3001
	s := schema.New(
		schema.Column{Name: "a", ByteSize: 4},
		schema.Column{Name: "b", ByteSize: 4},
		schema.Column{Name: "c", ByteSize: 4},
		schema.Column{Name: "d", ByteSize: 8 + 4*in.next()},
	)
	dom, noise := 1+in.next()%120, in.next()%5
	rng := rand.New(rand.NewSource(int64(in.next()<<8 | in.next())))
	rows := make([]value.Row, n)
	for i := range rows {
		a := value.V(rng.Intn(dom))
		b := a / 10 // b follows a, up to noise quarters of the rows
		if rng.Intn(4) < noise {
			b = value.V(rng.Intn(dom/10 + 1))
		}
		rows[i] = value.Row{a, b, value.V(rng.Intn(50) - 10), value.V(rng.Intn(2000) - 1000)}
	}
	keys := [][]int{nil, {0}, {1}, {2}, {0, 2}, {1, 0}, {2, 1, 0}}
	rel := storage.NewRelation("fuzz", s, keys[in.next()%len(keys)], rows)
	o := NewObject(rel)
	sets := [][]int{{0}, {1}, {2}, {1, 2}, {2, 0}}
	o.AddBTree(sets[in.next()%len(sets)])
	cmCols := sets[in.next()%len(sets)]
	widths := make([]value.V, len(cmCols))
	for i := range widths {
		widths[i] = value.V(1 + in.next()%4)
	}
	o.AddCM(cm.Build(rel, cmCols, widths, 1+in.next()%8))
	if target := in.next() % 3; len(rel.ClusterKey) > 0 && target != rel.ClusterKey[0] {
		if x, err := corridx.Build(rel, target, corridx.Config{TargetWidth: value.V(1 + in.next()%4)}); err == nil {
			o.AddCorrIdx(x)
		}
	}

	q := &query.Query{Name: "fuzz", Fact: "fuzz"}
	val := func() value.V { return value.V(in.next()%(dom+20) - 10) }
	names := []string{"a", "b", "c"}
	first := in.next()
	for i := range names {
		col := names[(first+i)%len(names)]
		switch in.next() % 4 {
		case 1:
			q.Predicates = append(q.Predicates, query.NewEq(col, val()))
		case 2:
			lo := val()
			q.Predicates = append(q.Predicates, query.NewRange(col, lo, lo+value.V(in.next()%40-2)))
		case 3:
			set := make([]value.V, 1+in.next()%4)
			for j := range set {
				set[j] = val()
			}
			q.Predicates = append(q.Predicates, query.NewIn(col, set...))
		}
	}
	q.AggCol = []string{"d", "", "a"}[in.next()%3]
	return o, q
}

// FuzzPlanEquivalence is the executor's differential target: every
// feasible plan must answer like the row-at-a-time reference, and Best —
// which plans everything but runs one — must return exactly the result a
// ranking of fully run plans picks: the same plan, I/O, fragments and
// touched intervals.
func FuzzPlanEquivalence(f *testing.F) {
	f.Add([]byte{11, 184, 20, 60, 0, 1, 2, 1, 1, 1, 0, 1, 1, 0, 1, 1, 13, 2, 15, 20, 0, 0})
	f.Add([]byte{9, 196, 60, 100, 2, 7, 7, 5, 2, 3, 1, 0, 3, 0, 1, 0, 2, 30, 30, 3, 2, 12, 13, 17, 1, 30, 0})
	f.Add([]byte{3, 232, 0, 50, 1, 3, 3, 6, 4, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1})
	f.Add([]byte{8, 1, 100, 30, 4, 9, 9, 0, 3, 2, 3, 7, 1, 2, 2, 5, 25, 3, 0, 20, 1, 11, 2})
	f.Add([]byte{})
	disk := storage.DefaultDiskParams()
	f.Fuzz(func(t *testing.T, data []byte) {
		o, q := decodePlanCase(data)
		sum, rows := referenceScan(o.Rel, q)
		var ranked Result
		for i, spec := range Plans(o, q) {
			got, err := Execute(o, q, spec)
			if err != nil {
				t.Fatalf("plan %+v: %v", spec, err)
			}
			if got.Sum != sum || got.Rows != rows {
				t.Fatalf("plan %+v answers sum=%d rows=%d, the reference sum=%d rows=%d (key %v, preds %+v, agg %q)",
					spec, got.Sum, got.Rows, sum, rows, o.Rel.ClusterKey, q.Predicates, q.AggCol)
			}
			if i == 0 || got.Seconds(disk) < ranked.Seconds(disk) {
				ranked = got
			}
		}
		best, err := Best(o, q, disk)
		if err != nil {
			t.Fatal(err)
		}
		if best != ranked {
			t.Fatalf("Best returned %+v, running every plan ranks %+v first", best, ranked)
		}
	})
}
