// Package storage provides the simulated storage substrate: clustered heap
// files (relations sorted on a clustered key), the page/disk cost model the
// paper assumes (Appendix A-2.2), I/O accounting, and a buffer-pool
// simulator for the maintenance-cost experiment (Appendix A-3).
//
// The paper's experiments run on a disk-bound commercial DBMS; its own cost
// model says
//
//	cost = fullscancost × selectivity + seek_cost × fragments × btree_height
//
// i.e. runtime is fully determined by how many pages are read sequentially
// and how many random seeks are performed. This package therefore measures
// "real runtime" by executing queries over materialized designs while
// counting page reads and seeks, then converting to seconds with DiskParams.
package storage

import (
	"fmt"
	"slices"
	"sort"

	"coradd/internal/schema"
	"coradd/internal/value"
)

// PageSize is the simulated disk page size in bytes.
const PageSize = 8192

// DefaultSeekCost is the time to seek to a random page and read it,
// seconds. The paper's "typical value: 5.5 ms" (Table 5).
const DefaultSeekCost = 0.0055

// DefaultPageReadCost is the sequential per-page read time in seconds,
// ~80 MB/s on the paper's 10k RPM SATA disk: 8192B / 80MBps ≈ 0.0001 s.
const DefaultPageReadCost = 0.0001

// DiskParams converts I/O counts into simulated seconds.
type DiskParams struct {
	// SeekCost is seconds per random seek (includes reading the sought page).
	SeekCost float64
	// PageReadCost is seconds per sequentially read page.
	PageReadCost float64
}

// DefaultDiskParams returns the disk model used throughout the experiments.
func DefaultDiskParams() DiskParams {
	return DiskParams{SeekCost: DefaultSeekCost, PageReadCost: DefaultPageReadCost}
}

// IOStats accumulates the I/O a plan performed.
type IOStats struct {
	// Seeks is the number of random repositionings of the disk arm.
	Seeks int
	// PagesRead is the number of pages read sequentially (after each seek,
	// the first page is accounted here as well; the seek cost models only
	// the arm movement plus rotational delay).
	PagesRead int
	// IndexPagesRead counts secondary-structure pages (B+Tree node pages or
	// CM pages) read; these are part of PagesRead already and broken out for
	// diagnostics only.
	IndexPagesRead int
}

// Add accumulates other into s.
func (s *IOStats) Add(other IOStats) {
	s.Seeks += other.Seeks
	s.PagesRead += other.PagesRead
	s.IndexPagesRead += other.IndexPagesRead
}

// Seconds converts the accumulated I/O into simulated wall-clock seconds.
func (s IOStats) Seconds(p DiskParams) float64 {
	return float64(s.Seeks)*p.SeekCost + float64(s.PagesRead)*p.PageReadCost
}

// String renders the stats for diagnostics.
func (s IOStats) String() string {
	return fmt.Sprintf("seeks=%d pages=%d (index pages %d)", s.Seeks, s.PagesRead, s.IndexPagesRead)
}

// Relation is a clustered heap file: rows sorted by ClusterKey. A relation
// with an empty ClusterKey is stored in load order (unclustered heap).
type Relation struct {
	Name   string
	Schema *schema.Schema
	// ClusterKey is the ordered set of column positions the heap is sorted
	// on. May be empty.
	ClusterKey []int
	// Rows are the tuples, sorted by ClusterKey. Owned by the relation.
	Rows []value.Row
}

// NewRelation builds a relation and sorts rows by the clustered key.
// It takes ownership of rows.
func NewRelation(name string, s *schema.Schema, clusterKey []int, rows []value.Row) *Relation {
	r := &Relation{Name: name, Schema: s, ClusterKey: clusterKey, Rows: rows}
	r.Recluster(clusterKey)
	return r
}

// Recluster re-sorts the heap on a new clustered key. Rows with equal keys
// keep their relative order.
func (r *Relation) Recluster(key []int) {
	r.ClusterKey = key
	if order := r.SortedRIDs(key); order != nil {
		all := make([]int, len(r.Schema.Columns))
		for i := range all {
			all[i] = i
		}
		r.Rows = gather(r.Rows, order, all)
	}
}

// SortedRIDs returns the row positions ordered by the values of cols, rows
// with equal values in position order (the stable order), or nil when the
// rows already are in that order. Only the cols values are extracted and
// sorted; no row moves.
func (r *Relation) SortedRIDs(cols []int) []int32 {
	if slices.IsSortedFunc(r.Rows, func(a, b value.Row) int { return value.CompareRows(a, b, cols) }) {
		return nil
	}
	w := len(cols) - 1
	refs := make([]value.Ref, len(r.Rows))
	rest := make([]value.V, len(r.Rows)*w)
	for i, row := range r.Rows {
		refs[i] = value.Ref{Lead: row[cols[0]], Tie: int32(i), Pos: int32(i)}
		for j, c := range cols[1:] {
			rest[i*w+j] = row[c]
		}
	}
	value.SortRefs(refs, rest, w)
	order := make([]int32, len(refs))
	for i := range refs {
		order[i] = refs[i].Pos
	}
	return order
}

// gather copies cols of rows, taken in the given order (nil = as they
// are), into one backing array the returned rows slice into: one
// allocation instead of one per row, and a scan of the result walks memory
// sequentially.
func gather(rows []value.Row, order []int32, cols []int) []value.Row {
	w := len(cols)
	arena := make([]value.V, len(rows)*w)
	out := make([]value.Row, len(rows))
	for i := range out {
		src := rows[i]
		if order != nil {
			src = rows[order[i]]
		}
		dst := arena[i*w : (i+1)*w : (i+1)*w]
		for j, c := range cols {
			dst[j] = src[c]
		}
		out[i] = dst
	}
	return out
}

// NumRows returns the tuple count.
func (r *Relation) NumRows() int { return len(r.Rows) }

// TuplesPerPage is how many tuples fit on one heap page given the schema's
// logical row width. Always at least 1.
func (r *Relation) TuplesPerPage() int {
	n := PageSize / r.Schema.RowBytes()
	if n < 1 {
		n = 1
	}
	return n
}

// NumPages is the heap-file page count.
func (r *Relation) NumPages() int {
	tpp := r.TuplesPerPage()
	return (len(r.Rows) + tpp - 1) / tpp
}

// PageOfRow returns the heap page number holding row index i.
func (r *Relation) PageOfRow(i int) int { return i / r.TuplesPerPage() }

// HeapBytes is the heap file size in bytes.
func (r *Relation) HeapBytes() int64 {
	return int64(r.NumPages()) * PageSize
}

// Project builds a new relation containing only cols (in order), clustered
// on newKey, where newKey positions refer to the *new* schema. Used to
// materialize MVs: an MV is a projection of the (pre-joined) fact relation
// re-sorted on its own clustered key.
func (r *Relation) Project(name string, cols []int, newKey []int) *Relation {
	srcKey := make([]int, len(newKey))
	for i, k := range newKey {
		srcKey[i] = cols[k]
	}
	return &Relation{
		Name: name, Schema: r.Schema.Project(cols), ClusterKey: newKey,
		Rows: gather(r.Rows, r.SortedRIDs(srcKey), cols),
	}
}

// PrefixRange returns the row-index range [lo,hi) of rows whose first
// clustered-key attribute lies in [loVal,hiVal] (inclusive).
func (r *Relation) PrefixRange(loVal, hiVal value.V) (lo, hi int) {
	c := r.ClusterKey[0]
	lo = sort.Search(len(r.Rows), func(i int) bool { return r.Rows[i][c] >= loVal })
	hi = sort.Search(len(r.Rows), func(i int) bool { return r.Rows[i][c] > hiVal })
	return lo, hi
}
