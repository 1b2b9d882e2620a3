package query

import (
	"strconv"
	"strings"

	"deepweb/internal/core"
	"deepweb/internal/index"
	"deepweb/internal/textutil"
)

// compiled is one predicate plus everything derivable at compile time:
// its hypothesized value type and, for equality, the value as the
// padded token phrase the text fallback looks for.
type compiled struct {
	p      Predicate
	typ    string // core.HypothesizeType(attr, ""); "" = untyped
	phrase string // OpEq: " tok tok " over the value's tokens; "" = no tokens
}

// Matcher evaluates a fixed predicate list against documents. Compile
// once per query with NewMatcher; then either Bind it to an index's
// annotation store and call Bound.Match once per candidate of one scan
// — the serving path — or hand Match a document's annotations as a
// map, the slow reference spelling of the same evaluation. A Matcher
// is read-only after construction and safe for concurrent use.
type Matcher struct {
	preds []compiled
	// typed: some predicate reads type-compatible attributes, so
	// binding needs each attribute's hypothesized type.
	typed bool
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
		c := compiled{p: p, typ: core.HypothesizeType(p.Attr, "")}
		if p.Op == OpEq {
			if toks := textutil.Tokenize(p.Value); len(toks) > 0 {
				c.phrase = " " + strings.Join(toks, " ") + " "
			}
		} else if c.typ != "" {
			m.typed = true
		}
		m.preds = append(m.preds, c)
	}
	return m
}

// reads reports whether the predicate consults annotations on attr,
// whose hypothesized type is attrTyp: always its own attribute, and for
// a typed numeric predicate every type-compatible one (minprice and
// maxprice both hypothesize to price).
func (c *compiled) reads(attr, attrTyp string) bool {
	return attr == c.p.Attr || c.p.Op != OpEq && c.typ != "" && attrTyp == c.typ
}

// readsOf resolves, once per bind, which attribute ids each predicate
// reads — one HypothesizeType per attribute, not per candidate — into
// buf: predicate i's table is the i-th run of len(cols) entries.
func (m *Matcher) readsOf(cols []index.AnnColumn, buf []bool) []bool {
	n := len(cols)
	if need := len(m.preds) * n; cap(buf) < need {
		buf = make([]bool, need)
	} else {
		buf = buf[:need]
	}
	for a, col := range cols {
		typ := ""
		if m.typed {
			typ = core.HypothesizeType(col.Attr, "")
		}
		for i := range m.preds {
			buf[i*n+a] = m.preds[i].reads(col.Attr, typ)
		}
	}
	return buf
}

// Bound is a Matcher bound to one index's columnar annotation store
// for the span of one scan: which attribute ids each predicate reads is
// resolved once, so a candidate costs a walk over its row's pairs — the
// row TopK hands its Filter's Match, in place — and reads the document
// or allocates only when the text fallback runs. A Bound serves one
// scan: call Match only as the Filter.Match of one TopK or
// AnnotatedTopK, on that scan's goroutine.
type Bound struct {
	m     *Matcher
	ix    *index.Index
	cols  []index.AnnColumn // nil until the first Match
	reads []bool            // readsOf(cols)
}

// Bind binds the matcher to ix's annotation store. A nil Matcher binds
// to a nil Bound, which matches every document.
func (m *Matcher) Bind(ix *index.Index) *Bound {
	if m == nil {
		return nil
	}
	return &Bound{m: m, ix: ix}
}

// Match reports whether document d of the bound index, whose
// annotation row is row, satisfies every predicate; d's title and text
// are read only when some predicate finds no relevant annotation.
func (b *Bound) Match(row []index.AnnPair, d *index.Doc) bool {
	if b == nil {
		return true
	}
	if b.cols == nil {
		// The scan's first candidate: its read lock is held from here to
		// its last, so no writer interns anything while these views are
		// in use and they cover every row the scan hands over.
		b.cols = b.ix.AnnotationColumns()
		b.reads = b.m.readsOf(b.cols, nil)
	}
	return b.m.match(row, b.cols, b.reads, d)
}

// Match reports whether a document satisfies every predicate, given
// its annotations (nil when it has none) and its title and text. It is
// Bound.Match for callers holding a map instead of an index — tests,
// the benchmark's reference — and shares its evaluation: the map is
// laid out as a one-document columnar store, each attribute a column of
// one value, and judged the same way.
func (m *Matcher) Match(anns map[string]string, title, text string) bool {
	if m == nil {
		return true
	}
	// Fixed-size room for the usual handful of annotations keeps the
	// reference spelling, slow next to a Bound, to one small allocation.
	var (
		colBuf  [8]index.AnnColumn
		rowBuf  [8]index.AnnPair
		valBuf  [8]index.AnnValue
		readBuf [32]bool
	)
	cols, row, vals := colBuf[:0], rowBuf[:0], valBuf[:0]
	for attr, val := range anns {
		vals = append(vals, index.NewAnnValue(val))
		row = append(row, index.AnnPair{Attr: uint32(len(cols))})
		cols = append(cols, index.AnnColumn{Attr: attr, Values: vals[len(vals)-1:]})
	}
	return m.match(row, cols, m.readsOf(cols, readBuf[:0]), &index.Doc{Title: title, Text: text})
}

// match is the one evaluation both spellings end in. The document is
// read — its title and text tokenized, at most once — only when some
// predicate actually needs the text fallback.
func (m *Matcher) match(row []index.AnnPair, cols []index.AnnColumn, reads []bool, d *index.Doc) bool {
	var doc *docTokens
	for i := range m.preds {
		c := &m.preds[i]
		switch c.judge(row, cols, reads[i*len(cols):(i+1)*len(cols)]) {
		case reject:
			return false
		case askText:
			if doc == nil {
				doc = newDocTokens(d.Title, d.Text)
			}
			if !c.matchText(doc) {
				return false
			}
		}
	}
	return true
}

// verdict is what a document's annotations say about one predicate.
type verdict uint8

const (
	admit   verdict = iota // a relevant annotation satisfies it
	reject                 // relevant annotations exist and none does
	askText                // no relevant annotation: the text decides
)

// judge evaluates one predicate against a document's annotation row
// (steps 1 and 2 of the package doc's resolution order).
func (c *compiled) judge(row []index.AnnPair, cols []index.AnnColumn, reads []bool) verdict {
	found := false
	for _, a := range row {
		if !reads[a.Attr] {
			continue
		}
		v := &cols[a.Attr].Values[a.Code]
		if c.p.Op == OpEq {
			// The exact attribute's annotation is authoritative either
			// way: agreement admits, contradiction rejects.
			if v.Text == c.p.Value {
				return admit
			}
			return reject
		}
		// Numeric predicate: candidate values come from annotations on
		// the attribute itself or any type-compatible attribute. Any
		// satisfying candidate admits the document.
		if !v.IsNum {
			continue
		}
		if c.inBounds(v.Num) {
			return admit
		}
		found = true
	}
	if found {
		// Relevant annotations existed and all contradicted the bound:
		// the page is about values outside the filter.
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
	if c.typ == core.TypeDate {
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
