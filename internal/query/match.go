package query

import (
	"strconv"
	"strings"

	"deepweb/internal/index"
	"deepweb/internal/textutil"
)

// compiled is one predicate plus everything derivable at compile time:
// its hypothesized value type and, for equality, the value as the
// padded token phrase the text fallback looks for.
type compiled struct {
	p      Predicate
	typ    string // textutil.HypothesizeType(attr, ""); "" = untyped
	phrase string // OpEq: " tok tok " over the value's tokens; "" = no tokens
}

// Matcher evaluates a fixed predicate list against documents. Compile
// once per query with NewMatcher; then either Bind it to an index's
// annotation tables and call Bound.Match once per candidate of one scan
// — the serving path — or hand Match a document's annotations as a
// map, the slow reference evaluation the serving path is checked
// against. A Matcher is read-only after construction and safe for
// concurrent use.
type Matcher struct {
	preds []compiled
}

// NewMatcher compiles a predicate list. An empty or nil list returns
// nil, and a nil *Matcher matches every document — callers can wire
// `m.Match` unconditionally.
func NewMatcher(preds []Predicate) *Matcher {
	if len(preds) == 0 {
		return nil
	}
	m := &Matcher{preds: make([]compiled, 0, len(preds))}
	for _, p := range preds {
		c := compiled{p: p, typ: textutil.HypothesizeType(p.Attr, "")}
		if p.Op == OpEq {
			if toks := textutil.Tokenize(p.Value); len(toks) > 0 {
				c.phrase = " " + strings.Join(toks, " ") + " "
			}
		}
		m.preds = append(m.preds, c)
	}
	return m
}

// reads reports whether the predicate consults annotations on attr:
// always its own attribute, and for a typed numeric predicate every
// type-compatible one (minprice and maxprice both hypothesize to
// price).
func (c *compiled) reads(attr string) bool {
	return attr == c.p.Attr || c.p.Op != OpEq && c.typ != "" && textutil.HypothesizeType(attr, "") == c.typ
}

// verdict is what a document's annotations say about one predicate.
type verdict uint8

const (
	admit   verdict = iota // a relevant annotation satisfies it
	reject                 // relevant annotations exist and none does
	askText                // no relevant annotation: the text decides
)

// Match reports whether a document satisfies every predicate, given
// its annotations (nil when it has none) and its title and text. It
// evaluates the package doc's resolution order straight off the map:
// the reference Bound.Match is held to.
func (m *Matcher) Match(anns map[string]string, title, text string) bool {
	if m == nil {
		return true
	}
	var doc *docTokens
	for i := range m.preds {
		c := &m.preds[i]
		switch c.overMap(anns) {
		case reject:
			return false
		case askText:
			if doc == nil {
				doc = newDocTokens(title, text)
			}
			if !c.matchText(doc) {
				return false
			}
		}
	}
	return true
}

// overMap evaluates one predicate against an annotation map (steps 1
// and 2 of the package doc's resolution order).
func (c *compiled) overMap(anns map[string]string) verdict {
	if c.p.Op == OpEq {
		// The exact attribute's annotation is authoritative either way:
		// agreement admits, contradiction rejects.
		v, ok := anns[c.p.Attr]
		switch {
		case !ok:
			return askText
		case v == c.p.Value:
			return admit
		}
		return reject
	}
	// Numeric predicate: candidate values come from annotations on the
	// attribute itself or any type-compatible attribute. Any satisfying
	// candidate admits the document; relevant annotations that all
	// contradict the bound reject it.
	found := false
	for attr, v := range anns {
		if !c.reads(attr) {
			continue
		}
		if num, ok := index.ParseNumber(v); ok {
			if c.inBounds(num) {
				return admit
			}
			found = true
		}
	}
	if found {
		return reject
	}
	return askText
}

// Bound is a Matcher bound to one index's annotation tables for the
// span of one scan. On a schema's first candidate it resolves which of
// the schema's columns each predicate reads, and the code an equality
// predicate's value has in its column's dictionary, so a candidate
// costs its schema and slot, then per column a predicate reads one
// code — compared with that code, or looked up in the dictionary's
// numeric column; it decodes the document's row, and allocates, only
// when the text fallback runs. A Bound serves one scan: call Match
// only as the Filter.Match of one TopK or AnnotatedTopK, on that
// scan's goroutine.
type Bound struct {
	m    *Matcher
	ix   *index.Index
	t    index.AnnTables // taken on the first Match
	rows index.Rows      // likewise
	// plans holds, by schema id, the columns each predicate reads in
	// that schema's table; nil until the first Match, and a schema's
	// entry nil until its first candidate.
	plans [][][]column
}

// column is one table column a predicate reads: the value codes by
// slot, and the attribute's dictionary they index. For an equality
// predicate, eq is its value's code in that dictionary, or noCode when
// the dictionary lacks the value: dictionary values are distinct, so
// the value is the document's exactly when the codes are equal.
type column struct {
	codes []uint32
	dict  *index.AnnColumn
	eq    uint64
}

// noCode is past every code: no document's code equals it.
const noCode = 1 << 32

// Bind binds the matcher to ix's annotation tables. A nil Matcher binds
// to a nil Bound, which matches every document.
func (m *Matcher) Bind(ix *index.Index) *Bound {
	if m == nil {
		return nil
	}
	return &Bound{m: m, ix: ix}
}

// Match reports whether document id of the bound index satisfies
// every predicate; its title and text are read only when some
// predicate finds no relevant annotation.
func (b *Bound) Match(id int) bool {
	if b == nil {
		return true
	}
	if b.plans == nil {
		// The scan's first candidate: its read lock is held from here to
		// its last, so no writer touches the tables while these views
		// are in use, and they cover every candidate the scan hands
		// over.
		b.t, b.rows = b.ix.AnnotationTables(), b.ix.RowView()
		b.plans = make([][][]column, len(b.t.Schemas))
	}
	var s, slot uint32
	if id < len(b.t.Schema) {
		s, slot = b.t.Schema[id], b.t.Slot[id]
	}
	plan := b.plans[s]
	if plan == nil {
		plan = b.plan(s)
		b.plans[s] = plan
	}
	var doc *docTokens
	for i := range b.m.preds {
		c := &b.m.preds[i]
		switch c.inTable(plan[i], slot) {
		case reject:
			return false
		case askText:
			if doc == nil {
				d := b.rows.Doc(id)
				doc = newDocTokens(d.Title, d.Text)
			}
			if !c.matchText(doc) {
				return false
			}
		}
	}
	return true
}

// plan resolves, for schema s, the columns each predicate reads.
func (b *Bound) plan(s uint32) [][]column {
	sch := &b.t.Schemas[s]
	plan := make([][]column, len(b.m.preds))
	cols := make([]column, 0, len(b.m.preds)*len(sch.Attrs))
	for i := range b.m.preds {
		from := len(cols)
		c := &b.m.preds[i]
		for j, a := range sch.Attrs {
			dict := b.t.Column(a)
			if !c.reads(dict.Attr) {
				continue
			}
			col := column{codes: sch.Codes[j], dict: dict, eq: noCode}
			if c.p.Op == OpEq {
				if code, ok := dict.Code(c.p.Value); ok {
					col.eq = uint64(code)
				}
			}
			cols = append(cols, col)
		}
		plan[i] = cols[from:len(cols):len(cols)]
	}
	return plan
}

// inTable evaluates one predicate against the columns it reads, at one
// slot of their table (steps 1 and 2, as overMap).
func (c *compiled) inTable(cols []column, slot uint32) verdict {
	found := false
	for i := range cols {
		col := &cols[i]
		code := col.codes[slot]
		if c.p.Op == OpEq {
			if uint64(code) == col.eq {
				return admit
			}
			return reject
		}
		num, ok := col.dict.Num(code)
		if !ok {
			continue
		}
		if c.inBounds(num) {
			return admit
		}
		found = true
	}
	if found {
		return reject
	}
	return askText
}

// matchText evaluates one predicate against the document's text (step
// 3): phrase containment over its tokens for equality (multi-token
// values match as a phrase, as in annotated ranking), its typed tokens
// for a numeric bound.
func (c *compiled) matchText(d *docTokens) bool {
	if c.p.Op == OpEq {
		return c.phrase != "" && strings.Contains(d.padded, c.phrase)
	}
	nums := d.nums
	if c.typ == textutil.TypeDate {
		nums = d.years
	}
	for _, v := range nums {
		if c.inBounds(v) {
			return true
		}
	}
	return false
}

// docTokens is the lazily-built per-document text view: the padded
// token string for phrase containment and the document's numeric
// tokens for typed extraction.
type docTokens struct {
	padded string
	nums   []float64
	years  []float64
}

func newDocTokens(title, text string) *docTokens {
	toks := textutil.Tokenize(title + " " + text)
	d := &docTokens{padded: " " + strings.Join(toks, " ") + " "}
	for _, t := range toks {
		if !IsNumber(t) {
			continue
		}
		v, err := strconv.ParseFloat(t, 64)
		if err != nil {
			continue
		}
		d.nums = append(d.nums, v)
		if v >= 1500 && v <= 2200 {
			d.years = append(d.years, v)
		}
	}
	return d
}

// inBounds applies the predicate's comparison to one candidate value.
func (c *compiled) inBounds(v float64) bool {
	switch c.p.Op {
	case OpLt:
		return v < c.p.Hi
	case OpLe:
		return v <= c.p.Hi
	case OpGt:
		return v > c.p.Lo
	case OpGe:
		return v >= c.p.Lo
	case OpRange:
		return v >= c.p.Lo && v <= c.p.Hi
	}
	return false
}
