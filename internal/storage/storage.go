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

// Relation is a clustered heap file stored column-major: Cols[c][i] is
// column c of the i-th tuple in cluster order, one slice per schema
// column. A relation with an empty ClusterKey is stored in load order
// (unclustered heap). Scans read only the columns they need, so a query
// over a wide fact table streams a few slices instead of every row.
type Relation struct {
	Name   string
	Schema *schema.Schema
	// ClusterKey is the ordered set of column positions the heap is sorted
	// on. May be empty.
	ClusterKey []int
	// Cols are the tuples, one slice per column, all of NumRows values,
	// sorted by ClusterKey. Owned by the relation.
	Cols [][]value.V
	// Rows is kept for compatibility only: the rows NewRelation was handed,
	// in the same cluster order as Cols. Project output carries none. No
	// package of the module outside storage reads it; the benchmark
	// harness still does, and Rows goes once it stops (ROADMAP item 6(d)).
	Rows []value.Row
}

// NewRelation builds a relation from rows, transposed into columns and
// sorted by the clustered key. It takes ownership of rows.
func NewRelation(name string, s *schema.Schema, clusterKey []int, rows []value.Row) *Relation {
	cols := columns(len(s.Columns), len(rows))
	for i, row := range rows {
		for c, col := range cols {
			col[i] = row[c]
		}
	}
	r := &Relation{Name: name, Schema: s, Cols: cols, Rows: rows}
	r.Recluster(clusterKey)
	return r
}

// columns allocates w columns of n values over one backing array.
func columns(w, n int) [][]value.V {
	arena := make([]value.V, w*n)
	cols := make([][]value.V, w)
	for c := range cols {
		cols[c] = arena[c*n : (c+1)*n : (c+1)*n]
	}
	return cols
}

// gather writes src taken in the given order (nil = as it is) into dst.
func gather[T any](dst, src []T, order []int32) {
	if order == nil {
		copy(dst, src)
		return
	}
	for i, rid := range order {
		dst[i] = src[rid]
	}
}

// Recluster re-sorts the heap on a new clustered key, column by column in
// place. Rows with equal keys keep their relative order.
func (r *Relation) Recluster(key []int) {
	r.ClusterKey = key
	order := r.SortedRIDs(key)
	if order == nil {
		return
	}
	tmp := make([]value.V, len(order))
	for _, col := range r.Cols {
		gather(tmp, col, order)
		copy(col, tmp)
	}
	if r.Rows != nil {
		rows := make([]value.Row, len(order))
		gather(rows, r.Rows, order)
		r.Rows = rows
	}
}

// SortedRIDs returns the row positions ordered by the values of cols, rows
// with equal values in position order (the stable order), or nil when the
// rows already are in that order. Only the cols columns are read and
// sorted; no row moves.
func (r *Relation) SortedRIDs(cols []int) []int32 {
	if r.sortedOn(cols) {
		return nil
	}
	order := make([]int32, r.NumRows())
	for i := range order {
		order[i] = int32(i)
	}
	keys := make([][]value.V, len(cols))
	for j, c := range cols {
		keys[j] = r.Cols[c]
	}
	value.Sort(order, keys...)
	return order
}

// sortedOn reports whether the rows are in ascending order of cols.
func (r *Relation) sortedOn(cols []int) bool {
	for i := 1; i < r.NumRows(); i++ {
		for _, c := range cols {
			if a, b := r.Cols[c][i-1], r.Cols[c][i]; a > b {
				return false
			} else if a < b {
				break
			}
		}
	}
	return true
}

// NumRows returns the tuple count.
func (r *Relation) NumRows() int {
	if len(r.Cols) == 0 {
		return 0
	}
	return len(r.Cols[0])
}

// Row returns a fresh copy of tuple i, assembled from the columns.
func (r *Relation) Row(i int) value.Row {
	row := make(value.Row, len(r.Cols))
	for c, col := range r.Cols {
		row[c] = col[i]
	}
	return row
}

// TuplesPerPage is how many tuples fit on one heap page given the schema's
// logical row width. Always at least 1.
func (r *Relation) TuplesPerPage() int {
	return max(PageSize/r.Schema.RowBytes(), 1)
}

// NumPages is the heap-file page count.
func (r *Relation) NumPages() int {
	tpp := r.TuplesPerPage()
	return (r.NumRows() + tpp - 1) / tpp
}

// HeapBytes is the heap file size in bytes.
func (r *Relation) HeapBytes() int64 {
	return int64(r.NumPages()) * PageSize
}

// Project builds a new relation containing only cols (in order), clustered
// on newKey, where newKey positions refer to the *new* schema. Used to
// materialize MVs: an MV is a projection of the (pre-joined) fact relation
// re-sorted on its own clustered key. Each kept column is gathered on its
// own, so only the projected columns are read.
func (r *Relation) Project(name string, cols []int, newKey []int) *Relation {
	srcKey := make([]int, len(newKey))
	for i, k := range newKey {
		srcKey[i] = cols[k]
	}
	order := r.SortedRIDs(srcKey)
	out := columns(len(cols), r.NumRows())
	for j, c := range cols {
		gather(out[j], r.Cols[c], order)
	}
	return &Relation{Name: name, Schema: r.Schema.Project(cols), ClusterKey: newKey, Cols: out}
}

// SortedRange returns the rows [lo,hi) within [from,to) whose column c
// value lies in [loV,hiV] (inclusive), by binary search: column c must be
// sorted over [from,to) — the clustered lead over the whole heap, or a
// deeper key column inside a run of equal leading values.
func (r *Relation) SortedRange(c, from, to int, loV, hiV value.V) (lo, hi int) {
	col := r.Cols[c][from:to]
	lo = sort.Search(len(col), func(i int) bool { return col[i] >= loV })
	hi = sort.Search(len(col), func(i int) bool { return col[i] > hiV })
	return from + lo, from + hi
}
