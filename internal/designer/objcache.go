package designer

import (
	"container/list"
	"os"
	"strconv"
	"strings"
	"sync"

	"coradd/internal/btree"
	"coradd/internal/cm"
	"coradd/internal/corridx"
	"coradd/internal/envknob"
	"coradd/internal/exec"
	"coradd/internal/storage"
)

// DefaultCacheBytes is the default ObjectCache capacity. Projected
// relations and dense B+Trees dominate the footprint; a long budget sweep
// at large scale factors would otherwise retain every distinct MV
// projection it ever materialized. Override per cache with SetMaxBytes or
// globally with the CORADD_CACHE_BYTES environment variable (a
// non-negative integer byte count; 0 means unlimited; anything else is
// rejected at cache construction — see ParseCacheBytes).
const DefaultCacheBytes = 1 << 30

// cacheBytesEnv names the environment override for the capacity.
const cacheBytesEnv = "CORADD_CACHE_BYTES"

// ObjectCache reuses physical design artifacts across the many designs a
// budget sweep evaluates. The designs CORADD, Commercial and Naive pick at
// neighbouring budgets overlap heavily — the same MV (same columns and
// clustered key) recurs with different names across budget points and
// designers — yet Materialize used to rebuild the projection, the stable
// sort, every B+Tree and every correlation map per Measure call. The cache
// keys each artifact by a canonical structural signature, so a rebuild
// happens only the first time a structure is seen:
//
//   - relations by (columns, cluster key): projection + stable sort;
//   - correlation maps by (relation signature, query): the CM Designer's
//     whole width/key-set search;
//   - dense B+Trees by (relation signature, indexed columns);
//   - whole objects by (relation signature, style-specific structures,
//     PK-index columns): assembly of the above.
//
// Entries are charged their measured byte footprint and evicted in LRU
// order once the configured capacity is exceeded, so the working set stays
// bounded; an evicted artifact is simply rebuilt — deterministically — on
// its next use. All methods are safe for concurrent use; the parallel
// evaluator fans Measure calls, and Materialize a design's objects, across
// goroutines. Concurrent misses on the same key build once: the first
// requester builds, the others wait for its result (single flight), so a
// fan-out never duplicates a row-scale sort.
// Cached artifacts are shared and must be treated as immutable by callers.
type ObjectCache struct {
	mu      sync.Mutex
	max     int64
	used    int64
	entries map[string]*list.Element
	lru     *list.List // front = most recently used
	// inflight holds the builds in progress, by key.
	inflight map[string]*flight

	hits, misses, evictions int
}

// flight is one build in progress. done is closed when the build ends; ok
// then says whether val holds its result (false: the build failed or
// panicked, and a waiter builds for itself).
type flight struct {
	done chan struct{}
	val  any
	ok   bool
}

// cacheEntry is one LRU node. deps lists the cache keys of the artifacts
// this entry references (an assembled object's relation, trees and CMs):
// a hit touches them too, and each dep carries a pin count while a
// dependent entry lives. Eviction skips pinned entries — evicting a
// component an object still references would free no memory (the object
// keeps it reachable) while forcing a duplicate rebuild on the next
// independent request; instead the object entry goes first, releasing
// its pins so the components become evictable. Pins are taken when the
// dependent entry is stored, so a component built during a still-running
// object assembly is unpinned until the assembly ends and may be evicted
// meanwhile under a cap smaller than one design's objects, all of which
// assemble concurrently — the bound is soft by up to the in-flight
// components, never incorrect (the dep loop skips missing keys and a
// later miss rebuilds deterministically).
type cacheEntry struct {
	key   string
	bytes int64
	val   any
	deps  []string
	pins  int
}

// ParseCacheBytes validates a CORADD_CACHE_BYTES value: a base-10
// non-negative integer byte count, where 0 means unlimited. Negative
// values and garbage are errors — an operator typo must fail loudly, not
// silently run with a default capacity that masks the intent.
func ParseCacheBytes(v string) (int64, error) {
	n, err := strconv.ParseInt(v, 10, 64)
	if err != nil {
		return 0, envknob.Reject(cacheBytesEnv, v, "not a base-10 integer byte count: %v", err)
	}
	if n < 0 {
		return 0, envknob.Reject(cacheBytesEnv, v, "capacity must be non-negative (0 = unlimited)")
	}
	return n, nil
}

// NewObjectCache returns an empty cache with the default (or
// environment-overridden) capacity. An invalid CORADD_CACHE_BYTES value
// panics with the ParseCacheBytes error: every run would otherwise
// silently ignore the operator's capacity request.
func NewObjectCache() *ObjectCache {
	max := int64(DefaultCacheBytes)
	if v := os.Getenv(cacheBytesEnv); v != "" {
		parsed, err := ParseCacheBytes(v)
		if err != nil {
			panic("designer: " + err.Error())
		}
		max = parsed
	}
	return &ObjectCache{
		max:      max,
		entries:  make(map[string]*list.Element),
		lru:      list.New(),
		inflight: make(map[string]*flight),
	}
}

// SetMaxBytes changes the capacity (≤ 0 means unlimited) and evicts down
// to it immediately.
func (c *ObjectCache) SetMaxBytes(max int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.max = max
	c.evictLocked()
}

// Stats reports cache effectiveness: total hits and misses across all
// artifact kinds.
func (c *ObjectCache) Stats() (hits, misses int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.hits, c.misses
}

// CacheStats is a consistent snapshot of the cache's lifetime counters
// and current footprint, in the shape /metrics exports.
type CacheStats struct {
	Hits      int
	Misses    int
	Evictions int
	UsedBytes int64
}

// Snapshot returns all counters under one lock acquisition. Hits, Misses
// and Evictions are lifetime-monotonic (Flush drops entries but never
// resets counters); UsedBytes is the instantaneous charged footprint.
func (c *ObjectCache) Snapshot() CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return CacheStats{Hits: c.hits, Misses: c.misses, Evictions: c.evictions, UsedBytes: c.used}
}

// UsedBytes reports the charged footprint of the cached artifacts.
func (c *ObjectCache) UsedBytes() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.used
}

// Flush drops every cached artifact. Use when the underlying fact relation
// changes (the cache never observes mutation itself), or between
// experiment phases to release the previous phase's working set.
func (c *ObjectCache) Flush() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.entries = make(map[string]*list.Element)
	c.lru.Init()
	c.used = 0
}

// evictLocked removes least-recently-used unpinned entries until the
// footprint fits the capacity; pinned entries are rotated to the front
// (their dependents are by construction at least as recent). The scan is
// bounded by the list length, so a fully-pinned cache simply stays over
// budget until dependents are evicted on a later call. Callers hold c.mu.
func (c *ObjectCache) evictLocked() {
	if c.max <= 0 {
		return
	}
	for c.used > c.max {
		evicted := false
		for scan := c.lru.Len(); scan > 0 && c.used > c.max; scan-- {
			back := c.lru.Back()
			e := back.Value.(*cacheEntry)
			if e.pins > 0 {
				c.lru.MoveToFront(back)
				continue
			}
			c.lru.Remove(back)
			delete(c.entries, e.key)
			c.used -= e.bytes
			c.evictions++
			evicted = true
			for _, d := range e.deps {
				if del, ok := c.entries[d]; ok {
					del.Value.(*cacheEntry).pins--
				}
			}
		}
		if !evicted {
			break // everything left is pinned; dependents go first next time
		}
	}
}

// memoGetDeps is the one lock/hit/wait/miss/build/store protocol behind
// every accessor. build returning ok=false means "do not cache" (used for
// fallible builds) and may report the dependency keys of the built
// artifact; bytes reports the artifact's footprint charge. A request that
// finds the key being built waits for that build and counts as a hit, so
// there is exactly one miss per built artifact at any concurrency.
func memoGetDeps[V any](c *ObjectCache, key string, build func() (V, bool, []string), bytes func(V) int64) V {
	for {
		c.mu.Lock()
		if el, ok := c.entries[key]; ok {
			c.hits++
			c.lru.MoveToFront(el)
			e := el.Value.(*cacheEntry)
			for _, d := range e.deps {
				if del, ok := c.entries[d]; ok {
					c.lru.MoveToFront(del)
				}
			}
			v := e.val.(V)
			c.mu.Unlock()
			return v
		}
		f, building := c.inflight[key]
		if !building {
			break
		}
		c.mu.Unlock()
		<-f.done
		if f.ok {
			c.mu.Lock()
			c.hits++
			c.mu.Unlock()
			return f.val.(V)
		}
	}
	f := &flight{done: make(chan struct{})}
	c.inflight[key] = f
	c.misses++
	c.mu.Unlock()
	// Deferred so that a panicking build releases its waiters too.
	defer func() {
		c.mu.Lock()
		delete(c.inflight, key)
		c.mu.Unlock()
		close(f.done)
	}()
	v, ok, deps := build()
	if !ok {
		return v
	}
	f.val, f.ok = v, true
	b := bytes(v)
	if b < int64(len(key))+64 {
		b = int64(len(key)) + 64 // floor: map key + bookkeeping
	}
	c.mu.Lock()
	// Never cache an artifact larger than the whole capacity: storing it
	// would drain every other entry and then evict itself.
	if c.max <= 0 || b <= c.max {
		c.entries[key] = c.lru.PushFront(&cacheEntry{key: key, bytes: b, val: v, deps: deps})
		for _, d := range deps {
			if del, ok := c.entries[d]; ok {
				del.Value.(*cacheEntry).pins++
			}
		}
		c.used += b
		c.evictLocked()
	}
	c.mu.Unlock()
	return v
}

// memoGet is memoGetDeps for dependency-free artifacts.
func memoGet[V any](c *ObjectCache, key string, build func() (V, bool), bytes func(V) int64) V {
	return memoGetDeps(c, key, func() (V, bool, []string) {
		v, ok := build()
		return v, ok, nil
	}, bytes)
}

// always adapts an infallible build for memoGet.
func always[V any](build func() V) func() (V, bool) {
	return func() (V, bool) { return build(), true }
}

// relKey/treeKey/cmKey/cidxKey build the cache keys component artifacts
// are stored under, so object builders can declare them as dependencies.
func relKey(sig string) string  { return "rel|" + sig }
func treeKey(sig string) string { return "tree|" + sig }
func cmKey(sig string) string   { return "cm|" + sig }
func cidxKey(sig string) string { return "cidx|" + sig }

// relation returns the cached projection for sig, building it on miss.
func (c *ObjectCache) relation(sig string, build func() *storage.Relation) *storage.Relation {
	return memoGet(c, relKey(sig), always(build), func(r *storage.Relation) int64 {
		return r.HeapBytes()
	})
}

// object returns the cached assembled object for sig, building on miss.
// Failed builds are not cached. Objects are charged only their assembly
// overhead: the relation, trees and CMs they reference carry their own
// entries, declared as dependencies (via the build's deps collector) so
// an object hit keeps its pinned components hot.
func (c *ObjectCache) object(sig string, build func(deps *[]string) (*exec.Object, error)) (*exec.Object, error) {
	var err error
	o := memoGetDeps(c, "obj|"+sig, func() (*exec.Object, bool, []string) {
		var deps []string
		var o *exec.Object
		o, err = build(&deps)
		return o, err == nil, deps
	}, func(*exec.Object) int64 { return 0 })
	return o, err
}

// cmDesign returns the cached CM Designer outcome for sig, running the
// designer on miss. A nil CM ("no CM helps") is a cached result too.
func (c *ObjectCache) cmDesign(sig string, design func() *cm.CM) *cm.CM {
	return memoGet(c, cmKey(sig), always(design), func(m *cm.CM) int64 {
		if m == nil {
			return 0
		}
		return m.Bytes()
	})
}

// plan returns the cached plan choice for sig, choosing on miss. Only
// successful choices are cached; choose re-runs after an error.
func (c *ObjectCache) plan(sig string, choose func() (exec.PlanSpec, error)) (exec.PlanSpec, error) {
	var err error
	s := memoGet(c, "plan|"+sig, func() (exec.PlanSpec, bool) {
		var s exec.PlanSpec
		s, err = choose()
		return s, err == nil
	}, func(exec.PlanSpec) int64 { return 0 })
	return s, err
}

// corrIdx returns the cached correlation index for sig, building on miss.
// Failed builds (mismatched clustering) are not cached.
func (c *ObjectCache) corrIdx(sig string, build func() (*corridx.Index, error)) (*corridx.Index, error) {
	var err error
	x := memoGet(c, cidxKey(sig), func() (*corridx.Index, bool) {
		var x *corridx.Index
		x, err = build()
		return x, err == nil
	}, func(x *corridx.Index) int64 {
		return x.Bytes()
	})
	return x, err
}

// tree returns the cached dense B+Tree for sig, building on miss.
func (c *ObjectCache) tree(sig string, build func() *btree.Tree) *btree.Tree {
	return memoGet(c, treeKey(sig), always(build), func(t *btree.Tree) int64 {
		return t.Bytes()
	})
}

// sigInts appends label plus a comma-separated int list to b.
func sigInts(b *strings.Builder, label string, xs []int) {
	b.WriteByte('|')
	b.WriteString(label)
	for i, x := range xs {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(strconv.Itoa(x))
	}
}

// sigStrings appends label plus a comma-separated string list to b.
func sigStrings(b *strings.Builder, label string, xs []string) {
	b.WriteByte('|')
	b.WriteString(label)
	for i, x := range xs {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(x)
	}
}
