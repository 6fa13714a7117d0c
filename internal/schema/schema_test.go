package schema

import (
	"testing"
)

func twoCol() *Schema {
	return New(
		Column{Name: "a", ByteSize: 4},
		Column{Name: "b", ByteSize: 2, Dict: []string{"x", "y"}},
	)
}

func TestColLookup(t *testing.T) {
	s := twoCol()
	if s.Col("a") != 0 || s.Col("b") != 1 {
		t.Errorf("positions: a=%d b=%d", s.Col("a"), s.Col("b"))
	}
	if s.Col("missing") != -1 {
		t.Error("missing column should be -1")
	}
}

func TestMustColPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MustCol did not panic on unknown column")
		}
	}()
	twoCol().MustCol("nope")
}

func TestDuplicateColumnPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("New did not panic on duplicate column")
		}
	}()
	New(Column{Name: "a", ByteSize: 1}, Column{Name: "a", ByteSize: 1})
}

func TestRowBytesAndSubset(t *testing.T) {
	s := twoCol()
	if s.RowBytes() != 6 {
		t.Errorf("RowBytes = %d, want 6", s.RowBytes())
	}
	if s.SubsetBytes([]int{1}) != 2 {
		t.Errorf("SubsetBytes(b) = %d, want 2", s.SubsetBytes([]int{1}))
	}
}

func TestProjectPreservesOrder(t *testing.T) {
	s := twoCol()
	p := s.Project([]int{1, 0})
	if p.Columns[0].Name != "b" || p.Columns[1].Name != "a" {
		t.Errorf("Project order wrong: %v", p.Names())
	}
	if p.Col("a") != 1 {
		t.Errorf("projected position of a = %d, want 1", p.Col("a"))
	}
}

func TestDecode(t *testing.T) {
	s := twoCol()
	if got := s.Columns[1].Decode(1); got != "y" {
		t.Errorf("Decode(1) = %q, want y", got)
	}
	if got := s.Columns[1].Decode(5); got != "5" {
		t.Errorf("Decode out of dict = %q, want \"5\"", got)
	}
	if got := s.Columns[0].Decode(7); got != "7" {
		t.Errorf("numeric Decode = %q", got)
	}
}

func TestColNames(t *testing.T) {
	s := twoCol()
	if got := s.ColNames([]int{1, 0}); got != "b,a" {
		t.Errorf("ColNames = %q", got)
	}
}
