// Package schema describes relations: column names, logical byte sizes used
// by the MV size model, and optional string dictionaries for display.
package schema

import (
	"fmt"
	"strings"

	"coradd/internal/value"
)

// Column describes one attribute of a relation.
type Column struct {
	// Name is the attribute name, unique within a schema.
	Name string
	// ByteSize is the logical storage width in bytes of one value of this
	// column (the bytesize(Attr) of paper §4.1.3), used by the MV size model
	// and the α-weighted extended selectivity vectors.
	ByteSize int
	// Dict, when non-nil, maps coded int64 values back to the original
	// strings (index = code). Nil for natively numeric columns.
	Dict []string
}

// Decode renders v for humans: the dictionary string if one exists,
// otherwise the decimal value.
func (c *Column) Decode(v value.V) string {
	if c.Dict != nil && v >= 0 && int(v) < len(c.Dict) {
		return c.Dict[v]
	}
	return fmt.Sprintf("%d", v)
}

// Schema is an ordered set of columns.
type Schema struct {
	Columns []Column
	byName  map[string]int
}

// New builds a schema from columns. Column names must be unique.
func New(cols ...Column) *Schema {
	s := &Schema{Columns: cols, byName: make(map[string]int, len(cols))}
	for i, c := range cols {
		if c.Name == "" {
			panic("schema: empty column name")
		}
		if _, dup := s.byName[c.Name]; dup {
			panic("schema: duplicate column " + c.Name)
		}
		s.byName[c.Name] = i
	}
	return s
}

// Col returns the position of the named column, or -1 if absent.
func (s *Schema) Col(name string) int {
	if i, ok := s.byName[name]; ok {
		return i
	}
	return -1
}

// MustCol is Col but panics on unknown names; used where the name is a
// programmer-supplied literal.
func (s *Schema) MustCol(name string) int {
	i := s.Col(name)
	if i < 0 {
		panic("schema: unknown column " + name)
	}
	return i
}

// Names returns the column names in order.
func (s *Schema) Names() []string {
	out := make([]string, len(s.Columns))
	for i, c := range s.Columns {
		out[i] = c.Name
	}
	return out
}

// ColSet returns positions for the given names, in the given order.
func (s *Schema) ColSet(names ...string) []int {
	out := make([]int, len(names))
	for i, n := range names {
		out[i] = s.MustCol(n)
	}
	return out
}

// RowBytes is the total logical byte width of one tuple under this schema.
func (s *Schema) RowBytes() int {
	n := 0
	for _, c := range s.Columns {
		n += c.ByteSize
	}
	return n
}

// SubsetBytes is the logical byte width of a tuple restricted to cols.
func (s *Schema) SubsetBytes(cols []int) int {
	n := 0
	for _, c := range cols {
		n += s.Columns[c].ByteSize
	}
	return n
}

// Project returns a new schema containing only cols, in the given order.
func (s *Schema) Project(cols []int) *Schema {
	out := make([]Column, len(cols))
	for i, c := range cols {
		out[i] = s.Columns[c]
	}
	return New(out...)
}

// ColNames formats a column-position set as "a,b,c" for diagnostics.
func (s *Schema) ColNames(cols []int) string {
	parts := make([]string, len(cols))
	for i, c := range cols {
		parts[i] = s.Columns[c].Name
	}
	return strings.Join(parts, ",")
}
