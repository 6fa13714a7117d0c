package costmodel

import (
	"encoding/binary"
	"sync"

	"coradd/internal/query"
)

// memo caches a model's estimates by what an estimate depends on: the
// candidate's structure (MVDesign.Key) and the query's content — its
// predicates with their literals, its targets and its aggregate column.
// The name never participates: callers reuse a name for other literals (a
// daemon client may), and two queries differing only in name or weight
// price alike. A model can therefore be shared across redesigns and
// snapshots and returns exactly what a fresh model would.
//
// Estimates are priced from several goroutines at once
// (feedback.BuildProblem), so every access is race-safe. Concurrent misses
// may compute the same entry twice; estimates are deterministic, so
// last-write-wins is safe. The zero value is ready to use.
type memo struct {
	mu  sync.Mutex
	est map[memoKey]cached
	// ids interns content keys; a memo entry names its query by id, so a
	// lookup never hashes a long key (an IN list may carry thousands of
	// values).
	ids map[string]int
	// byQuery caches each query's content id per *query.Query, the way
	// stats.Stats.Compiled caches compilation: queries are immutable once
	// priced, and the key is built once per query rather than per call.
	byQuery sync.Map // *query.Query → int
}

type memoKey struct {
	design string
	query  int
}

type cached struct {
	cost float64
	kind PathKind
}

// get returns the memoized estimate of q on d, computing it with price on
// a miss.
func (m *memo) get(d *MVDesign, q *query.Query, price func(*MVDesign, *query.Query) (float64, PathKind)) (float64, PathKind) {
	k := memoKey{design: d.Key(), query: m.contentID(q)}
	m.mu.Lock()
	c, ok := m.est[k]
	m.mu.Unlock()
	if ok {
		return c.cost, c.kind
	}
	cost, kind := price(d, q)
	m.mu.Lock()
	if m.est == nil {
		m.est = make(map[memoKey]cached)
	}
	m.est[k] = cached{cost, kind}
	m.mu.Unlock()
	return cost, kind
}

// contentID returns the interned id of q's content key.
func (m *memo) contentID(q *query.Query) int {
	if id, ok := m.byQuery.Load(q); ok {
		return id.(int)
	}
	key := contentKey(q)
	m.mu.Lock()
	id, ok := m.ids[key]
	if !ok {
		if m.ids == nil {
			m.ids = make(map[string]int)
		}
		id = len(m.ids)
		m.ids[key] = id
	}
	m.mu.Unlock()
	m.byQuery.Store(q, id)
	return id
}

// contentKey encodes every field of q an estimate reads: each predicate's
// column, operator, bounds and IN set, the targets and the aggregate
// column. Strings are length-prefixed, so distinct contents never collide.
func contentKey(q *query.Query) string {
	var b []byte
	str := func(s string) {
		b = binary.AppendUvarint(b, uint64(len(s)))
		b = append(b, s...)
	}
	b = binary.AppendUvarint(b, uint64(len(q.Predicates)))
	for i := range q.Predicates {
		p := &q.Predicates[i]
		str(p.Col)
		b = binary.AppendVarint(b, int64(p.Op))
		b = binary.LittleEndian.AppendUint64(b, uint64(p.Lo))
		b = binary.LittleEndian.AppendUint64(b, uint64(p.Hi))
		b = binary.AppendUvarint(b, uint64(len(p.Set)))
		for _, v := range p.Set {
			b = binary.LittleEndian.AppendUint64(b, uint64(v))
		}
	}
	b = binary.AppendUvarint(b, uint64(len(q.Targets)))
	for _, t := range q.Targets {
		str(t)
	}
	str(q.AggCol)
	return string(b)
}
