// Package btree implements the B+Tree used both as the dense secondary
// index baseline (one entry per tuple, as in the commercial designer the
// paper compares against) and to model the clustered-index path height that
// appears in the cost model's seek term (Appendix A-2.2).
//
// Trees are built bottom-up from sorted entries, bulk-load style, with
// page-accurate fanout derived from key byte widths, so page counts and
// heights match what a disk-resident tree of the same schema would have.
package btree

import (
	"cmp"
	"math"
	"slices"
	"sort"

	"coradd/internal/storage"
	"coradd/internal/value"
)

// Entry is one leaf record of a secondary index: the composite secondary
// key plus the row position in the owning heap file.
type Entry struct {
	Key []value.V
	RID int32
}

// perEntryOverhead models slotted-page and pointer overhead per leaf entry.
const perEntryOverhead = 8

// Tree is an immutable bulk-loaded B+Tree.
type Tree struct {
	// entries are the leaf records in key order.
	entries []Entry
	// keyBytes is the logical byte width of one composite key.
	keyBytes int
	// leafFanout and innerFanout are entries per leaf page / separators per
	// internal page.
	leafFanout, innerFanout int
	height                  int // number of levels including the leaf level
	leafPages               int
	innerPages              int
}

// Build bulk-loads a tree from entries (taking ownership), sorting them by
// key then RID. keyBytes is the logical width of one key in bytes; it
// controls fanout and therefore page counts and height.
func Build(entries []Entry, keyBytes int) *Tree {
	slices.SortFunc(entries, func(a, b Entry) int {
		if c := value.CompareKeys(a.Key, b.Key); c != 0 {
			return c
		}
		return cmp.Compare(a.RID, b.RID)
	})
	return bulkLoad(entries, keyBytes)
}

// bulkLoad lays the page structure over entries already in (key, RID)
// order.
func bulkLoad(entries []Entry, keyBytes int) *Tree {
	t := &Tree{entries: entries, keyBytes: keyBytes}
	entryBytes := keyBytes + 4 + perEntryOverhead // key + rid + overhead
	t.leafFanout = storage.PageSize / entryBytes
	if t.leafFanout < 2 {
		t.leafFanout = 2
	}
	t.innerFanout = storage.PageSize / (keyBytes + perEntryOverhead)
	if t.innerFanout < 2 {
		t.innerFanout = 2
	}
	t.leafPages = (len(entries) + t.leafFanout - 1) / t.leafFanout
	if t.leafPages == 0 {
		t.leafPages = 1
	}
	// Internal levels shrink by innerFanout until a single root remains.
	t.height = 1
	level := t.leafPages
	for level > 1 {
		level = (level + t.innerFanout - 1) / t.innerFanout
		t.innerPages += level
		t.height++
	}
	return t
}

// BuildFromRelation indexes columns cols of rel: one entry per tuple
// (a dense conventional secondary index). The leaf keys are gathered in
// index order, column by column, into one backing array.
func BuildFromRelation(rel *storage.Relation, cols []int) *Tree {
	order := rel.SortedRIDs(cols)
	k := len(cols)
	keys := make([]value.V, rel.NumRows()*k)
	entries := make([]Entry, rel.NumRows())
	for i := range entries {
		rid := int32(i)
		if order != nil {
			rid = order[i]
		}
		entries[i] = Entry{Key: keys[i*k : (i+1)*k : (i+1)*k], RID: rid}
	}
	for j, c := range cols {
		col := rel.Cols[c]
		for i := range entries {
			keys[i*k+j] = col[entries[i].RID]
		}
	}
	return bulkLoad(entries, rel.Schema.SubsetBytes(cols))
}

// NumEntries returns the leaf entry count.
func (t *Tree) NumEntries() int { return len(t.entries) }

// Height is the number of levels root→leaf inclusive.
func (t *Tree) Height() int { return t.height }

// Pages is the total page count (leaf + internal).
func (t *Tree) Pages() int { return t.leafPages + t.innerPages }

// Bytes is the on-disk size of the index.
func (t *Tree) Bytes() int64 { return int64(t.Pages()) * storage.PageSize }

// lowerBound returns the first leaf position with key >= k.
func (t *Tree) lowerBound(k []value.V) int {
	return sort.Search(len(t.entries), func(i int) bool {
		return value.CompareKeys(t.entries[i].Key, k) >= 0
	})
}

// upperBound returns the first leaf position with key-prefix > k, where k
// may be shorter than the stored keys (prefix semantics).
func (t *Tree) upperBound(k []value.V) int {
	return sort.Search(len(t.entries), func(i int) bool {
		pre := t.entries[i].Key
		if len(pre) > len(k) {
			pre = pre[:len(k)]
		}
		return value.CompareKeys(pre, k) > 0
	})
}

// Range locates the half-open leaf-position run [start,end) of entries
// whose key-prefix lies in [lo, hi] (inclusive, prefix semantics) and
// returns the I/O of the traversal: one seek + height page reads to find
// the first leaf, then the leaf run read sequentially. Callers size result
// buffers from end-start and materialize RIDs with AppendRIDs, paying one
// descent per range.
func (t *Tree) Range(lo, hi []value.V) (start, end int, io storage.IOStats) {
	start = t.lowerBound(lo)
	end = t.upperBound(hi)
	io.Seeks = 1
	io.PagesRead = t.height // root-to-leaf path
	io.IndexPagesRead = t.height
	if end > start {
		leafSpan := (end-1)/t.leafFanout - start/t.leafFanout
		io.PagesRead += leafSpan
		io.IndexPagesRead += leafSpan
	}
	return start, end, io
}

// AppendRIDs appends the RIDs of leaf positions [start,end) (from Range)
// to dst and returns it.
func (t *Tree) AppendRIDs(dst []int32, start, end int) []int32 {
	for i := start; i < end; i++ {
		dst = append(dst, t.entries[i].RID)
	}
	return dst
}

// RangeRIDs is Range followed by AppendRIDs into a fresh exactly-sized
// slice.
func (t *Tree) RangeRIDs(lo, hi []value.V) ([]int32, storage.IOStats) {
	start, end, io := t.Range(lo, hi)
	n := end - start
	if n < 0 {
		n = 0
	}
	return t.AppendRIDs(make([]int32, 0, n), start, end), io
}

// LookupRIDs returns RIDs of entries whose key-prefix equals k exactly.
func (t *Tree) LookupRIDs(k []value.V) ([]int32, storage.IOStats) {
	return t.RangeRIDs(k, k)
}

// EstimateBytes predicts the size of a dense secondary index over numRows
// tuples with the given key byte width, without building it. Matches the
// accounting of Build.
func EstimateBytes(numRows, keyBytes int) int64 {
	entryBytes := keyBytes + 4 + perEntryOverhead
	leafFanout := storage.PageSize / entryBytes
	if leafFanout < 2 {
		leafFanout = 2
	}
	innerFanout := storage.PageSize / (keyBytes + perEntryOverhead)
	if innerFanout < 2 {
		innerFanout = 2
	}
	leafPages := (numRows + leafFanout - 1) / leafFanout
	if leafPages == 0 {
		leafPages = 1
	}
	pages := leafPages
	level := leafPages
	for level > 1 {
		level = (level + innerFanout - 1) / innerFanout
		pages += level
	}
	return int64(pages) * storage.PageSize
}

// EstimateHeight predicts the root→leaf level count of a clustered B+Tree
// over numPages heap pages whose separators have keyBytes width. Used for
// the btree_height statistic of the cost model (Table 5).
func EstimateHeight(numPages, keyBytes int) int {
	if numPages <= 1 {
		return 1
	}
	innerFanout := storage.PageSize / (keyBytes + perEntryOverhead)
	if innerFanout < 2 {
		innerFanout = 2
	}
	// levels above the heap: ceil(log_fanout(numPages)) internal levels.
	h := 1 + int(math.Ceil(math.Log(float64(numPages))/math.Log(float64(innerFanout))))
	if h < 2 {
		h = 2
	}
	return h
}
