package index

import (
	"bytes"
	"context"
	"encoding/binary"
	"fmt"
	"hash/maphash"
	"math"
	"slices"
	"sort"
	"strconv"
	"strings"

	"deepweb/internal/textutil"
)

// Annotation support (§5.1). When a deep-web page is surfaced, the
// engine knows exactly which inputs it filled to generate the page —
// structure that a plain IR index throws away. The paper's "used ford
// focus 1993" example shows the cost: a surfaced Honda Civic listing
// page whose text happens to mention the Ford Focus can outrank real
// Ford pages. Annotations keep the surfacing-time binding attached to
// the document, and AnnotatedTopK exploits it: a query token that is
// a known value of an annotated attribute demotes documents whose
// annotation *contradicts* it and boosts documents whose annotation
// confirms it.

// The store is a set of schema tables. An annotation is the form
// binding that surfaced a page, known when the page is ingested and
// never changed after, so the store is append-only: a document is
// annotated once, after every annotated document with a lower id. Every
// page from one query template carries the same attribute set — a
// schema — and a corpus has a handful of them (one per form template).
// Each attribute has a dictionary: its values' bytes back to back in
// code order with one end offset per code, the numeric readings of the
// values that have one, and a code table that finds a value's code —
// no header or pointer per value, and no value that no document
// carries. Each schema has a table, one code column per attribute and
// one slot per document, in doc-id order, and each document names its
// schema and its slot. What a query needs is then computed at the
// cheapest point that can know it:
//
//   - once per distinct value, when Annotate interns it or a load
//     installs its dictionary: the dictionary code, the numeric reading
//     (ParseNumber), the word count that bounds the n-gram probe below;
//   - once per document and column, when Annotate writes it or a load
//     installs its table: the column's NumRange in that schema, which
//     only widens as the table grows;
//   - once per query and schema: which of the schema's columns a
//     predicate reads, the code an equality predicate's value has in
//     each, and from the ranges a verdict on the whole schema — admit
//     all, reject all, or judge each (a query.Bound, on the schema's
//     first candidate); once per query, which dictionary values the
//     query text mentions (valuesMentioned);
//   - per candidate: the document's schema, whose verdict decides most
//     candidates; of a judge-each schema, its slot, then one code per
//     column a predicate reads — compared with a code, or looked up in
//     the numeric column.
//
// Snapshots persist the tables as they are, as the columns segment
// (internal/store): the tables an AnnBuilder fed every document in
// doc-id order builds are a live index's own. Loading installs them
// through InstallAnnotations, which derives the rest — numeric
// readings, word counts, the code tables, each document's schema and
// slot, the ranges — with the same ids on every load.

// ParseNumber reads an annotation value as a number, the one reading
// the store and the reference filter share: strconv.ParseFloat's value
// and whether it succeeded.
func ParseNumber(v string) (float64, bool) {
	if !mayBeNumber(v) {
		return 0, false
	}
	n, err := strconv.ParseFloat(v, 64)
	return n, err == nil
}

// mayBeNumber reports whether value v is worth handing to
// strconv.ParseFloat. A failed parse allocates an error holding a copy
// of its input, and most distinct values are prose (titles,
// summaries): only a value whose first byte can begin a float literal
// — a sign, a digit, a point, "inf", "nan" in either case — and that
// holds no space, as no literal does, passes.
func mayBeNumber[T string | []byte](v T) bool {
	if len(v) == 0 || strings.IndexByte("+-.0123456789inIN", v[0]) < 0 {
		return false
	}
	for i := range len(v) {
		if v[i] == ' ' {
			return false
		}
	}
	return true
}

// AnnColumn is one attribute's dictionary, indexed by value code:
// Text holds the values' bytes back to back in code order, and
// Ends[code] is where that code's value ends in Text. Tables and
// ExportAnnotations hand dictionaries out in this form, and
// InstallAnnotations takes them in it, reading Attr, Text and Ends and
// deriving the rest; the view AnnTables.Column returns also finds a
// value's code (Code) and reads a value's numeric reading (Num).
type AnnColumn struct {
	Attr string
	Text []byte   // append-only: a value's bytes never change
	Ends []uint32 // code -> end of its value in Text; ascending
	// nums and isNum hold, by code, the values' ParseNumber readings
	// and a bitset of the codes that have one: nil while no value
	// does, and only as long as the last such code needs.
	nums  []float64
	isNum []uint64
	// table finds a value's code: an open-addressing table of code+1,
	// 0 for an empty cell, probed linearly from the value's maphash. It
	// is at most 2/3 full, a power of two long, and re-inserts in code
	// order as it grows, so its layout depends only on the values in
	// code order.
	table []uint32
	// maxWords is the most space-separated words any value has: the
	// longest query n-gram worth probing codes with.
	maxWords int
}

// Value returns code's value.
func (c *AnnColumn) Value(code uint32) string { return string(c.value(code)) }

// value returns code's value in place.
func (c *AnnColumn) value(code uint32) []byte {
	start := uint32(0)
	if code > 0 {
		start = c.Ends[code-1]
	}
	return c.Text[start:c.Ends[code]]
}

// Num returns code's numeric reading, and whether its value has one.
func (c *AnnColumn) Num(code uint32) (float64, bool) {
	if w := int(code / 64); w < len(c.isNum) && c.isNum[w]&(1<<(code%64)) != 0 {
		return c.nums[code], true
	}
	return 0, false
}

// Code returns value v's code, if the dictionary holds it.
func (c *AnnColumn) Code(v string) (uint32, bool) {
	if len(c.table) == 0 {
		return 0, false
	}
	cell := *c.probe(v)
	return cell - 1, cell != 0
}

// AnnSchema is one schema's table: the attribute ids it holds and, per
// attribute, a column of value codes indexed by slot. Documents enter
// it in ascending id order and never leave, so slots follow doc ids.
type AnnSchema struct {
	Attrs []uint32   // ascending
	Codes [][]uint32 // Codes[i][slot]: the code of Attrs[i]'s value
	Docs  []int32    // slot -> doc id; ascending
}

// NumRange summarizes one column of one schema's table by the numeric
// readings of its slots' values: the least and the greatest reading,
// NaN aside (Min > Max when no slot has such a reading), how many slots
// read as NaN, and how many values have no reading at all. The store is
// append-only, so a range only widens.
type NumRange struct {
	Min, Max   float64
	NaN, Words uint32
}

// widen counts one more slot, holding code of dictionary c.
func (r *NumRange) widen(c *AnnColumn, code uint32) {
	n, ok := c.Num(code)
	switch {
	case !ok:
		r.Words++
	case n != n:
		r.NaN++
	default:
		r.Min, r.Max = min(r.Min, n), max(r.Max, n)
	}
}

// AnnTables is a read-only view of the annotation store (see
// AnnotationTables). Document id's annotations are slot Slot[id] of
// table Schemas[Schema[id]]; an id past the end of Schema, like schema
// 0, has none. Ranges[s][i] is the NumRange of column i of schema s's
// table.
type AnnTables struct {
	Schema  []uint32
	Slot    []uint32
	Schemas []AnnSchema
	Ranges  [][]NumRange
	cols    []AnnColumn
}

// Column returns attribute a's dictionary, in place.
func (t *AnnTables) Column(a uint32) *AnnColumn { return &t.cols[a] }

// annCell is one annotation of a document: attribute id and value.
type annCell struct {
	attr uint32
	v    string
}

// annStore carries annotations parallel to docs. It is append-only
// (see Annotate): a dictionary or a table only grows at its end, and
// every dictionary value is carried by some document.
type annStore struct {
	cols    []AnnColumn  // attribute id -> dictionary
	schemas []AnnSchema  // schema id -> table; schema 0 has no columns
	ranges  [][]NumRange // schema id -> column -> range; parallel to schemas
	schema  []uint32     // doc id -> schema id; 0, or past the end, for none
	slot    []uint32     // doc id -> slot in its schema's table
}

func newAnnStore() annStore {
	return annStore{schemas: make([]AnnSchema, 1), ranges: make([][]NumRange, 1)}
}

// annLookup finds attributes and schemas by name, which only a writer
// of the store asks: a reader holds none.
type annLookup struct {
	attrs     map[string]uint32 // attribute name -> id
	schemaIDs map[string]uint32 // four little-endian bytes per attribute id -> schema id
}

func newAnnLookup() annLookup {
	return annLookup{attrs: map[string]uint32{}, schemaIDs: map[string]uint32{}}
}

// thaw copies what a write of the store changes in place rather than
// appends to, for Builder.thaw: the dictionaries' headers with their
// code tables and numeric bitsets, the tables' headers with their
// column headers, and the ranges.
func (st *annStore) thaw() {
	st.cols, st.schemas, st.ranges = slices.Clone(st.cols), slices.Clone(st.schemas), slices.Clone(st.ranges)
	for a := range st.cols {
		c := &st.cols[a]
		c.table, c.isNum = slices.Clone(c.table), slices.Clone(c.isNum)
	}
	for s := range st.schemas {
		st.schemas[s].Codes, st.ranges[s] = slices.Clone(st.schemas[s].Codes), slices.Clone(st.ranges[s])
	}
}

// Annotate attaches attribute=value annotations to an indexed document
// (typically the form binding that surfaced it). Names and values are
// stored lower-cased and trimmed; pairs with an empty name or value are
// ignored, and a map of only such pairs is no annotation. A document
// holds one value per attribute: where two keys of anns name one
// attribute (say "Make" and "make "), the keys apply in sorted order,
// so the greatest key's value wins and the other is not kept.
// Annotations are written once, as a commit writes them: a document is
// annotated at most once, after every annotated document with a lower
// id. Any other call panics, naming the id.
func (b *Builder) Annotate(docID int, anns map[string]string) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if n := len(b.ix.lens); docID < 0 || docID >= n {
		panic(fmt.Sprintf("index: annotate doc %d: no such document among %d", docID, n))
	}
	b.thaw()
	b.ix.ann.annotate(&b.ann, docID, anns)
}

// annotate gives document docID the annotations anns: the per-document
// core of Annotate and of AnnBuilder. It resolves anns to one value per
// attribute before it interns any value: the keys apply in sorted
// order, so the attribute ids a document interns — at the first
// non-empty key naming each — never follow map order, and of two keys
// naming one attribute the greater wins. A document with annotations
// must follow every annotated one; it panics, interning nothing, on
// one that does not. lk is the store's lookup.
func (st *annStore) annotate(lk *annLookup, docID int, anns map[string]string) {
	var (
		keyBuf  [16]string // no allocation for the usual handful
		cellBuf [16]annCell
	)
	keys := keyBuf[:0]
	for k := range anns {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	cells := cellBuf[:0] // ascending attribute ids, each once
	for _, k := range keys {
		attr := strings.ToLower(strings.TrimSpace(k))
		v := strings.ToLower(strings.TrimSpace(anns[k]))
		if attr == "" || v == "" {
			continue
		}
		if len(cells) == 0 && (docID < len(st.schema) || docID < 0) {
			panic(fmt.Sprintf("index: annotate doc %d: documents are annotated once each, in ascending id order, and the highest annotated id is %d",
				docID, len(st.schema)-1))
		}
		a := st.attrID(lk, attr)
		i := len(cells)
		for i > 0 && cells[i-1].attr > a {
			i--
		}
		if i > 0 && cells[i-1].attr == a {
			cells[i-1].v = v // a greater key replaces the value
			continue
		}
		cells = slices.Insert(cells, i, annCell{attr: a, v: v})
	}
	if len(cells) == 0 {
		return
	}
	s := st.schemaOf(lk, cells)
	t, ranges := &st.schemas[s], st.ranges[s]
	for i, c := range cells {
		col := &st.cols[c.attr]
		code := col.code(c.v)
		t.Codes[i] = appendDoubling(t.Codes[i], code)
		ranges[i].widen(col, code)
	}
	st.schema = append(st.schema, make([]uint32, docID+1-len(st.schema))...)
	st.slot = append(st.slot, make([]uint32, docID+1-len(st.slot))...)
	st.schema[docID], st.slot[docID] = s, uint32(len(t.Docs))
	t.Docs = appendDoubling(t.Docs, int32(docID))
}

// attrID returns the attribute's id, creating its dictionary on first
// sight.
func (st *annStore) attrID(lk *annLookup, attr string) uint32 {
	a, ok := lk.attrs[attr]
	if !ok {
		a = uint32(len(st.cols))
		lk.attrs[attr] = a
		st.cols = append(st.cols, AnnColumn{Attr: attr})
	}
	return a
}

// code returns the value's dictionary code, interning it on first
// sight.
func (c *AnnColumn) code(v string) uint32 {
	code, ok := c.Code(v)
	if !ok {
		code = uint32(len(c.Ends))
		c.Text = append(grow(c.Text, len(v)), v...)
		c.Ends = appendDoubling(c.Ends, endOf(c.Attr, len(c.Text)))
		c.insert(code)
		if n, ok := ParseNumber(v); ok {
			c.setNum(code, n)
		}
		c.maxWords = max(c.maxWords, strings.Count(v, " ")+1)
	}
	return code
}

// endOf returns n, the length of attr's dictionary text, as an end
// offset. Past 4 GiB an offset cannot hold it, and it panics.
func endOf(attr string, n int) uint32 {
	if uint64(n) > math.MaxUint32 {
		panic(fmt.Sprintf("index: attribute %q: dictionary text of %d bytes passes the 4 GiB an end offset holds", attr, n))
	}
	return uint32(n)
}

// setNum records code's numeric reading n, growing the numeric column
// and its bitset to hold code.
func (c *AnnColumn) setNum(code uint32, n float64) {
	if int(code) >= len(c.nums) {
		c.nums = grow(c.nums, int(code)+1-len(c.nums))[:code+1]
	}
	w := int(code / 64)
	if w >= len(c.isNum) {
		c.isNum = grow(c.isNum, w+1-len(c.isNum))[:w+1]
	}
	c.nums[code] = n
	c.isNum[w] |= 1 << (code % 64)
}

// codeSeed keys every dictionary's code table.
var codeSeed = maphash.MakeSeed()

// probe returns the cell of the code table holding value v, or else
// the empty cell where v would go. The table must have an empty cell.
func (c *AnnColumn) probe(v string) *uint32 {
	mask := uint64(len(c.table) - 1)
	i := maphash.String(codeSeed, v) & mask
	for c.table[i] != 0 && string(c.value(c.table[i]-1)) != v {
		i = (i + 1) & mask
	}
	return &c.table[i]
}

// probeCode is probe for code's own value, read in place.
func (c *AnnColumn) probeCode(code uint32) *uint32 {
	v := c.value(code)
	mask := uint64(len(c.table) - 1)
	i := maphash.Bytes(codeSeed, v) & mask
	for c.table[i] != 0 && !bytes.Equal(c.value(c.table[i]-1), v) {
		i = (i + 1) & mask
	}
	return &c.table[i]
}

// insert enters code, whose value Text already holds, once the codes
// below it are in the table, doubling the table first (and re-entering
// those codes in order) when it would be more than 2/3 full. It reports
// false, entering nothing, if an equal value holds a code already.
func (c *AnnColumn) insert(code uint32) bool {
	if 3*(int(code)+1) > 2*len(c.table) {
		c.table = make([]uint32, max(2*len(c.table), 8))
		for prev := range code {
			*c.probeCode(prev) = prev + 1
		}
	}
	cell := c.probeCode(code)
	if *cell != 0 {
		return false
	}
	*cell = code + 1
	return true
}

// tableSize is the length of a code table that holds n values.
func tableSize(n int) int {
	size := 8
	for 3*n > 2*size {
		size *= 2
	}
	return size
}

// grow returns s with room for n more elements, at least doubling its
// capacity when it has not. The dictionaries and the tables are filled
// a little at a time during a build or a load, where append's 1.25x
// steps for large slices re-copy them some five times over — garbage
// that lands in the process's peak RSS.
func grow[T any](s []T, n int) []T {
	if len(s)+n <= cap(s) {
		return s
	}
	grown := make([]T, len(s), max(2*cap(s), len(s)+n, 16))
	copy(grown, s)
	return grown
}

// appendDoubling is append with capacity doubled on growth (see grow).
func appendDoubling[T any](s []T, v T) []T {
	return append(grow(s, 1), v)
}

// schemaOf returns the id of the schema holding exactly the cells'
// attributes, creating its table on first sight.
func (st *annStore) schemaOf(lk *annLookup, cells []annCell) uint32 {
	var keyBuf [64]byte
	key := keyBuf[:0]
	for _, c := range cells {
		key = binary.LittleEndian.AppendUint32(key, c.attr)
	}
	if s, ok := lk.schemaIDs[string(key)]; ok {
		return s
	}
	s := uint32(len(st.schemas))
	attrs := make([]uint32, len(cells))
	for i, c := range cells {
		attrs[i] = c.attr
	}
	st.schemas = append(st.schemas, AnnSchema{Attrs: attrs, Codes: make([][]uint32, len(cells))})
	st.ranges = append(st.ranges, newRanges(len(cells)))
	lk.schemaIDs[string(key)] = s
	return s
}

// newRanges returns the ranges of n columns with no slot.
func newRanges(n int) []NumRange {
	r := make([]NumRange, n)
	for i := range r {
		r[i] = NumRange{Min: math.Inf(1), Max: math.Inf(-1)}
	}
	return r
}

// asMap materializes a document's annotations as attribute -> value,
// nil if it has none: the values are substrings of one string, a copy
// of their bytes.
func (st *annStore) asMap(docID int) map[string]string {
	if docID < 0 || docID >= len(st.schema) || st.schema[docID] == 0 {
		return nil
	}
	t, slot := &st.schemas[st.schema[docID]], st.slot[docID]
	size := 0
	for i, a := range t.Attrs {
		size += len(st.cols[a].value(t.Codes[i][slot]))
	}
	// Grown to size, the builder never moves its bytes, so each value
	// is a substring of the one buffer.
	var sb strings.Builder
	sb.Grow(size)
	out := make(map[string]string, len(t.Attrs))
	for i, a := range t.Attrs {
		col, start := &st.cols[a], sb.Len()
		sb.Write(col.value(t.Codes[i][slot]))
		out[col.Attr] = sb.String()[start:]
	}
	return out
}

// tables returns the store's tables in the form InstallAnnotations
// takes: the dictionaries by attribute id, and the tables of schema 1
// on. They share the store's memory, which a writer only appends to
// past their ends, so what they hold never changes; each slice is
// clipped to its length, so an owner that appends to one copies it
// first.
func (st *annStore) tables() ([]AnnColumn, []AnnSchema) {
	cols := make([]AnnColumn, len(st.cols))
	for a, c := range st.cols {
		cols[a] = AnnColumn{Attr: c.Attr, Text: slices.Clip(c.Text), Ends: slices.Clip(c.Ends)}
	}
	schemas := make([]AnnSchema, len(st.schemas)-1)
	for s, t := range st.schemas[1:] {
		codes := make([][]uint32, len(t.Codes))
		for i, c := range t.Codes {
			codes[i] = slices.Clip(c)
		}
		schemas[s] = AnnSchema{Attrs: t.Attrs, Codes: codes, Docs: slices.Clip(t.Docs)}
	}
	return cols, schemas
}

// AnnotationsOf returns a document's annotations as a fresh map (nil
// if none). It is the slow, convenient view — experiments, the
// reference filter; serving reads the tables in place through a
// Filter's Match.
func (ix *Index) AnnotationsOf(docID int) map[string]string { return ix.ann.asMap(docID) }

// AnnotationTables returns a view of the annotation store, in place.
// Nothing writes a reader, so the view is valid for as long as it is
// held, and covers every document of the index.
func (ix *Index) AnnotationTables() AnnTables {
	st := &ix.ann
	return AnnTables{Schema: st.schema, Slot: st.slot, Schemas: st.schemas, Ranges: st.ranges, cols: st.cols}
}

// ExportAnnotations returns the annotation tables in the form
// InstallAnnotations takes — the tables an AnnBuilder fed every
// document's annotations in doc-id order builds, since the store is
// written the same way. They share the index's memory.
func (ix *Index) ExportAnnotations() ([]AnnColumn, []AnnSchema) { return ix.ann.tables() }

// AnnBuilder builds annotation tables outside any index, one document
// at a time, through Annotate's own intern core and under its contract:
// each document once, in ascending id order. A snapshot writer fed a
// tokenized stream builds the tables it persists with one. Not safe
// for concurrent use.
type AnnBuilder struct {
	st annStore
	lk annLookup
}

// NewAnnBuilder returns an empty builder.
func NewAnnBuilder() *AnnBuilder { return &AnnBuilder{st: newAnnStore(), lk: newAnnLookup()} }

// Annotate gives document id the annotations anns, as Builder.Annotate
// does; it panics where Builder.Annotate does, save that it knows no
// document count.
func (b *AnnBuilder) Annotate(id int, anns map[string]string) { b.st.annotate(&b.lk, id, anns) }

// Tables returns the tables built so far, as ExportAnnotations does.
func (b *AnnBuilder) Tables() ([]AnnColumn, []AnnSchema) { return b.st.tables() }

// InstallAnnotations installs a snapshot's annotation tables into a
// builder whose index has none. cols holds, by attribute id, each attribute's
// name and its dictionary — Attr, Text and Ends; schemas holds the
// tables of schema 1 on, each one's Attrs, Codes and Docs; docs is the
// snapshot's document count. The builder takes ownership of every slice.
// The rest — each value's numeric reading and word count, the code
// tables, each document's schema and slot, each column's NumRange — is
// derived outside the builder's lock, so a loader runs this beside
// ImportRows and ImportTerms.
// Tables no builder produces are refused whole, before anything is
// installed: a repeated attribute name, end offsets that leave an
// empty value or do not end at the text's end, a repeated dictionary
// value, a value no slot carries, an empty or repeated schema,
// attribute ids that do not ascend or name no attribute, a code past
// its dictionary, a slot list that does not ascend or leaves the
// documents, and a document in two schemas.
func (b *Builder) InstallAnnotations(cols []AnnColumn, schemas []AnnSchema, docs int) error {
	st, lk, err := restoreAnnStore(cols, schemas, docs)
	if err != nil {
		return fmt.Errorf("index: annotation tables: %w", err)
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if len(b.ix.ann.cols) != 0 {
		return fmt.Errorf("index: install annotations into an annotated index")
	}
	b.ix.ann, b.ann = st, lk
	return nil
}

// restoreAnnStore checks persisted tables and derives the store they
// are the columns of, and its lookup (see InstallAnnotations).
func restoreAnnStore(cols []AnnColumn, schemas []AnnSchema, docs int) (st annStore, lk annLookup, err error) {
	st, lk = newAnnStore(), newAnnLookup()
	st.cols = cols
	// carried marks, per attribute, the codes some slot holds.
	carried := make([][]uint64, len(cols))
	for a := range st.cols {
		col := &st.cols[a]
		if _, dup := lk.attrs[col.Attr]; dup {
			return st, lk, fmt.Errorf("attribute %q named twice", col.Attr)
		}
		lk.attrs[col.Attr] = uint32(a)
		n := len(col.Ends)
		*col = AnnColumn{Attr: col.Attr, Text: col.Text, Ends: col.Ends, table: make([]uint32, tableSize(n))}
		carried[a] = make([]uint64, (n+63)/64)
		prev := uint32(0)
		for code, end := range col.Ends {
			if end <= prev || int(end) > len(col.Text) {
				return st, lk, fmt.Errorf("attribute %q: value %d ends at %d, after %d, in %d bytes", col.Attr, code, end, prev, len(col.Text))
			}
			prev = end
			if !col.insert(uint32(code)) {
				return st, lk, fmt.Errorf("attribute %q: value %q twice in its dictionary", col.Attr, col.value(uint32(code)))
			}
			// v is checked before string(v), which allocates for all
			// but the shortest values.
			v := col.value(uint32(code))
			if mayBeNumber(v) {
				if num, ok := ParseNumber(string(v)); ok {
					if col.nums == nil {
						col.nums, col.isNum = make([]float64, 0, n), make([]uint64, 0, (n+63)/64)
					}
					col.setNum(uint32(code), num)
				}
			}
			col.maxWords = max(col.maxWords, bytes.Count(v, []byte(" "))+1)
		}
		if int(prev) != len(col.Text) {
			return st, lk, fmt.Errorf("attribute %q: %d bytes past its last value", col.Attr, len(col.Text)-int(prev))
		}
	}
	st.schemas = append(st.schemas, schemas...)
	st.ranges = make([][]NumRange, len(st.schemas))
	end := 0 // one past the highest annotated document
	for s := 1; s < len(st.schemas); s++ {
		t := &st.schemas[s]
		if len(t.Attrs) == 0 || len(t.Docs) == 0 || len(t.Codes) != len(t.Attrs) {
			return st, lk, fmt.Errorf("schema %d: %d attributes, %d code columns, %d slots", s, len(t.Attrs), len(t.Codes), len(t.Docs))
		}
		var keyBuf [64]byte
		key := keyBuf[:0]
		for i, a := range t.Attrs {
			if int(a) >= len(cols) || i > 0 && a <= t.Attrs[i-1] {
				return st, lk, fmt.Errorf("schema %d: attribute ids %v do not ascend within [0, %d)", s, t.Attrs, len(cols))
			}
			key = binary.LittleEndian.AppendUint32(key, a)
		}
		if _, dup := lk.schemaIDs[string(key)]; dup {
			return st, lk, fmt.Errorf("schema %d repeats attribute ids %v", s, t.Attrs)
		}
		lk.schemaIDs[string(key)] = uint32(s)
		for slot, id := range t.Docs {
			if id < 0 || int(id) >= docs {
				return st, lk, fmt.Errorf("schema %d: slot %d holds doc %d of %d", s, slot, id, docs)
			}
			if slot > 0 && id <= t.Docs[slot-1] {
				return st, lk, fmt.Errorf("schema %d: slot %d holds doc %d after doc %d", s, slot, id, t.Docs[slot-1])
			}
		}
		end = max(end, int(t.Docs[len(t.Docs)-1])+1)
		ranges := newRanges(len(t.Attrs))
		for i, codes := range t.Codes {
			a := t.Attrs[i]
			if len(codes) != len(t.Docs) {
				return st, lk, fmt.Errorf("schema %d: %d codes for %d slots", s, len(codes), len(t.Docs))
			}
			// A column of a dictionary with no numeric reading has none in
			// any slot: its range is its slot count of words.
			col, r, numeric := &st.cols[a], &ranges[i], st.cols[a].isNum != nil
			for _, c := range codes {
				if int(c) >= len(col.Ends) {
					return st, lk, fmt.Errorf("schema %d: code %d past attribute %q's %d values", s, c, col.Attr, len(col.Ends))
				}
				carried[a][c/64] |= 1 << (c % 64)
				if numeric {
					r.widen(col, c)
				}
			}
			if !numeric {
				r.Words = uint32(len(codes))
			}
		}
		st.ranges[s] = ranges
	}
	for a, col := range st.cols {
		for code := range col.Ends {
			if carried[a][code/64]&(1<<(code%64)) == 0 {
				return st, lk, fmt.Errorf("attribute %q: value %q carried by no document", col.Attr, col.value(uint32(code)))
			}
		}
	}
	if end > 0 {
		st.schema, st.slot = make([]uint32, end), make([]uint32, end)
	}
	for s := 1; s < len(st.schemas); s++ {
		for slot, id := range st.schemas[s].Docs {
			if st.schema[id] != 0 {
				return st, lk, fmt.Errorf("doc %d in schemas %d and %d", id, st.schema[id], s)
			}
			st.schema[id], st.slot[id] = uint32(s), uint32(slot)
		}
	}
	return st, lk, nil
}

// Annotation-aware scoring factors. Demotion is strong: a contradicted
// annotation means the page's records are about something else
// entirely, however good the term statistics look.
const (
	annBoost  = 1.25
	annDemote = 0.10
)

// rerankDepth is how deep into the base BM25 ranking annotation
// adjustments reach. Documents ranked deeper keep their plain BM25
// order — the usual re-rank-depth trade: bounded per-query cost and a
// canonical ordering (so pagination tiles exactly), at the price of a
// boost never lifting a document from beyond the depth.
const rerankDepth = 200

// AnnotatedTopK is TopK plus §5.1 annotation exploitation. For every
// attribute whose value vocabulary intersects the query, a document
// annotated with a *different* value of that attribute is demoted, and
// one annotated with the mentioned value is boosted. Unannotated
// documents are untouched, so the method degrades to plain BM25 when no
// annotations exist. Pagination, the admission filter, the total and
// cancellation behave as in TopK. Pages tile exactly: every request
// slices the same canonical ordering (the base top-rerankDepth
// re-ranked once, plain BM25 order beyond it). The total counts every
// document the query matched (after the filter), not just the
// re-ranked prefix.
func (ix *Index) AnnotatedTopK(ctx context.Context, query string, k, offset int, f *Filter) ([]Result, int, error) {
	if k <= 0 {
		return nil, 0, ctx.Err()
	}
	if offset < 0 {
		offset = 0
	}
	mentioned := ix.ann.valuesMentioned(query)
	if len(mentioned) == 0 {
		// No annotation vocabulary intersects the query: degrade to the
		// plain BM25 page, with no over-fetch at all.
		rs, total, err := ix.topK(ctx, query, k, offset, f)
		return ix.materialize(rs), total, err
	}

	// Re-ranking must page against one canonical adjusted ordering — a
	// pure function of (query, corpus) — or pages would not tile: a
	// window that varies with the request re-ranks each page against a
	// different candidate list, repeating or dropping boosted docs
	// across pages. The canonical ordering is the standard re-rank-
	// depth construction: the base top-rerankDepth is adjusted and
	// re-sorted once, everything deeper keeps its base (plain BM25)
	// order. Every page, whatever its k and offset, is a slice of that
	// one ordering, and the cost is bounded by the depth, not by the
	// hit count.
	const maxInt = int(^uint(0) >> 1)
	need := k + offset
	if need < k {
		need = maxInt
	}
	fetch := need
	if fetch < rerankDepth {
		fetch = rerankDepth
	}
	base, total, err := ix.topK(ctx, query, fetch, 0, f)
	if err != nil || len(base) == 0 {
		return base, total, err
	}
	head := base
	if len(head) > rerankDepth {
		head = head[:rerankDepth]
	}
	ix.ann.adjust(head, mentioned)
	sortResults(head)
	return ix.materialize(pageOf(base, k, offset)), total, nil
}

// mention is one attribute the query names a value of.
type mention struct {
	name       string
	attr, code uint32
}

// valuesMentioned returns, per annotation attribute, the value the
// query mentions, sorted by attribute name; empty when the query
// touches no annotation vocabulary. A value is mentioned when it equals
// a contiguous run of the query's tokens, so the lookup probes each
// dictionary with the query's n-grams — a few hundred table probes —
// instead of scanning every value for containment. Where the query
// mentions several values of one attribute the longest wins (multi-word
// values like "santa fe" beat their substrings), then the one that
// starts earliest: a total rule, so the choice never depends on map
// order.
func (st *annStore) valuesMentioned(query string) []mention {
	toks := textutil.Tokenize(query)
	if len(toks) == 0 {
		return nil
	}
	// q is the tokens joined by single spaces; an n-gram is then a
	// substring of it, found through the tokens' byte offsets.
	q := strings.Join(toks, " ")
	starts := make([]int, len(toks)+1)
	for i, t := range toks {
		starts[i+1] = starts[i] + len(t) + 1
	}
	var out []mention
	for a := range st.cols {
		col := &st.cols[a]
		var best uint32 // code of the value kept so far, bestLen bytes long
		bestLen := 0
		for i := range toks {
			for j := i + 1; j <= len(toks) && j-i <= col.maxWords; j++ {
				gram := q[starts[i] : starts[j]-1]
				c, ok := col.Code(gram)
				if !ok {
					continue
				}
				// Ascending i makes the earliest the first found, and
				// two grams of one length and one start are one value.
				if len(gram) > bestLen {
					best, bestLen = c, len(gram)
				}
			}
		}
		if bestLen > 0 {
			out = append(out, mention{name: col.Attr, attr: uint32(a), code: best})
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].name < out[j].name })
	return out
}

// adjust applies the §5.1 boost/demote factors to a ranked page in
// place. Factors multiply in sorted-attribute order: float products do
// not commute in the last bit, so any other order would make a query
// mentioning two attributes score — and break near-ties — differently
// from run to run.
func (st *annStore) adjust(rs []Result, mentioned []mention) {
	for i := range rs {
		id := rs[i].DocID
		if id >= len(st.schema) {
			continue
		}
		t, slot := &st.schemas[st.schema[id]], st.slot[id]
		for _, m := range mentioned {
			col, ok := slices.BinarySearch(t.Attrs, m.attr)
			if !ok {
				continue
			}
			if t.Codes[col][slot] == m.code {
				rs[i].Score *= annBoost
			} else {
				rs[i].Score *= annDemote
			}
		}
	}
}

// pageOf cuts the k-sized page at offset out of a ranked slice.
func pageOf(rs []Result, k, offset int) []Result {
	if offset > 0 {
		if offset >= len(rs) {
			return nil
		}
		rs = rs[offset:]
	}
	if k < len(rs) {
		rs = rs[:k]
	}
	return rs
}

func sortResults(rs []Result) {
	// The key (score desc, doc id asc) is total — no two entries share
	// a doc id — so an unstable sort is deterministic here, and O(n
	// log n) keeps full-hit-set re-ranking cheap.
	sort.Slice(rs, func(i, j int) bool {
		if rs[i].Score != rs[j].Score {
			return rs[i].Score > rs[j].Score
		}
		return rs[i].DocID < rs[j].DocID
	})
}
