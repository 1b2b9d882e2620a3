// Package reldb implements the small in-memory relational store that
// backs every synthetic deep-web site in this reproduction. A form
// submission against a site becomes a conjunctive query over one of these
// tables; the ground truth it provides (exact row sets per query) is what
// the live web never offers and what lets the experiments measure true
// coverage (paper §5.2).
//
// The engine is intentionally minimal — typed columns, conjunctive
// selection with equality / range / keyword predicates, deterministic row
// order — because the paper's algorithms only ever see sites through
// HTML, and the store exists to generate that HTML and to score it.
package reldb

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
)

// Kind is the type of a column.
type Kind uint8

// Column kinds. Text columns hold free text searched by keyword;
// String columns hold categorical values matched by equality; Int
// columns hold numerics matched by equality or range.
const (
	KindString Kind = iota
	KindInt
	KindText
)

func (k Kind) String() string {
	switch k {
	case KindString:
		return "string"
	case KindInt:
		return "int"
	case KindText:
		return "text"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

// Column describes one attribute of a table.
type Column struct {
	Name string
	Kind Kind
}

// Value is a dynamically-typed cell. Exactly one of Str/Int is
// meaningful, per Kind.
type Value struct {
	Kind Kind
	Str  string
	Int  int64
}

// S constructs a string value.
func S(s string) Value { return Value{Kind: KindString, Str: s} }

// I constructs an integer value.
func I(i int64) Value { return Value{Kind: KindInt, Int: i} }

// T constructs a free-text value.
func T(s string) Value { return Value{Kind: KindText, Str: s} }

// String renders the value the way the site generator prints it into
// HTML, so signatures computed over rendered pages line up with
// signatures computed over rows.
func (v Value) String() string {
	if v.Kind == KindInt {
		return strconv.FormatInt(v.Int, 10)
	}
	return v.Str
}

// Equal reports deep equality of two values.
func (v Value) Equal(o Value) bool {
	return v.Kind == o.Kind && v.Str == o.Str && v.Int == o.Int
}

// Row is one tuple, positionally aligned with the table's columns.
type Row []Value

// Table is a mutable relation: rows are appended at load and may later
// be updated, deleted or inserted to simulate content churn. Row ids
// are positional — a Delete shifts every later row down by one — which
// matches how the site generator addresses records (/record?id=N): the
// synthetic web re-renders from current table state on every request,
// so mutations are visible immediately and ground-truth oracles always
// describe the mutated site.
type Table struct {
	Name    string
	Columns []Column
	rows    []Row
	colIdx  map[string]int
}

// NewTable creates an empty table with the given schema. Column names
// must be unique.
func NewTable(name string, cols []Column) (*Table, error) {
	idx := make(map[string]int, len(cols))
	for i, c := range cols {
		if _, dup := idx[c.Name]; dup {
			return nil, fmt.Errorf("reldb: duplicate column %q in table %q", c.Name, name)
		}
		idx[c.Name] = i
	}
	return &Table{Name: name, Columns: cols, colIdx: idx}, nil
}

// MustNewTable is NewTable that panics on schema errors; for generators
// with static schemas.
func MustNewTable(name string, cols []Column) *Table {
	t, err := NewTable(name, cols)
	if err != nil {
		panic(err)
	}
	return t
}

// Insert appends a row after validating arity and kinds.
func (t *Table) Insert(r Row) error {
	if err := t.validate(r); err != nil {
		return err
	}
	t.rows = append(t.rows, r)
	return nil
}

// MustInsert is Insert that panics on error; for generators whose rows
// are constructed against the same static schema.
func (t *Table) MustInsert(r Row) {
	if err := t.Insert(r); err != nil {
		panic(err)
	}
}

// validate checks a row against the schema.
func (t *Table) validate(r Row) error {
	if len(r) != len(t.Columns) {
		return fmt.Errorf("reldb: row arity %d != schema arity %d in %q", len(r), len(t.Columns), t.Name)
	}
	for i, v := range r {
		if v.Kind != t.Columns[i].Kind {
			return fmt.Errorf("reldb: column %q wants %v, got %v", t.Columns[i].Name, t.Columns[i].Kind, v.Kind)
		}
	}
	return nil
}

// Update replaces row i after validating arity and kinds — one record
// changing in place (a price drop, a listing edit).
func (t *Table) Update(i int, r Row) error {
	if i < 0 || i >= len(t.rows) {
		return fmt.Errorf("reldb: update row %d of %d in %q", i, len(t.rows), t.Name)
	}
	if err := t.validate(r); err != nil {
		return err
	}
	t.rows[i] = r
	return nil
}

// Delete removes row i; every later row shifts down one id — a record
// disappearing from the site. The id reuse this implies is safe because
// nothing downstream holds row ids across mutations: pages are
// re-rendered and oracles re-evaluated from current state.
func (t *Table) Delete(i int) error {
	if i < 0 || i >= len(t.rows) {
		return fmt.Errorf("reldb: delete row %d of %d in %q", i, len(t.rows), t.Name)
	}
	t.rows = append(t.rows[:i], t.rows[i+1:]...)
	return nil
}

// Len returns the number of rows.
func (t *Table) Len() int { return len(t.rows) }

// Row returns row i. The returned slice must not be mutated.
func (t *Table) Row(i int) Row { return t.rows[i] }

// ColIndex returns the position of the named column, or -1.
func (t *Table) ColIndex(name string) int {
	if i, ok := t.colIdx[name]; ok {
		return i
	}
	return -1
}

// DistinctStrings returns the sorted distinct values of a string column.
// It is how the site generator populates select menus, and how tests
// obtain ground-truth value domains.
func (t *Table) DistinctStrings(col string) []string {
	i := t.ColIndex(col)
	if i < 0 {
		return nil
	}
	set := map[string]struct{}{}
	for _, r := range t.rows {
		set[r[i].Str] = struct{}{}
	}
	out := make([]string, 0, len(set))
	for s := range set {
		out = append(out, s)
	}
	sort.Strings(out)
	return out
}

// DistinctInts returns the sorted distinct values of an int column.
func (t *Table) DistinctInts(col string) []int64 {
	i := t.ColIndex(col)
	if i < 0 {
		return nil
	}
	set := map[int64]struct{}{}
	for _, r := range t.rows {
		set[r[i].Int] = struct{}{}
	}
	out := make([]int64, 0, len(set))
	for v := range set {
		out = append(out, v)
	}
	sort.Slice(out, func(a, b int) bool { return out[a] < out[b] })
	return out
}

// RowText renders a row as a flat text string (column values joined by
// spaces); it is the record text the site generator prints and the unit
// the IR index and signatures operate on.
func (t *Table) RowText(i int) string {
	var b strings.Builder
	for j, v := range t.rows[i] {
		if j > 0 {
			b.WriteByte(' ')
		}
		b.WriteString(v.String())
	}
	return b.String()
}
