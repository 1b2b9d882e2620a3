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
// once per query with NewMatcher; then either hand one scan the Filter
// that binds it to an index's annotation tables — the serving path,
// which judges each schema once and the candidates of the schemas it
// cannot decide one by one — or hand Match a document's annotations as
// a map, the slow reference evaluation the serving path is checked
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
// span of one scan. On a schema's first candidate it plans the schema:
// which of its columns each predicate reads, the code an equality
// predicate's value has in each column's dictionary, and from the
// columns' NumRanges a verdict on the whole schema, the AND over its
// predicates — admit all, reject all, or judge each. A candidate of a
// decided schema costs its schema alone; one of a judge-each schema
// costs its slot, then per predicate left to judge one code per column
// it reads — compared with that code, or looked up in the dictionary's
// numeric column. It decodes the document's row, and allocates, only
// when the text fallback runs. A Bound serves one scan: call Plan and
// Match only as the Filter.Schema and Filter.Match of one TopK or
// AnnotatedTopK (Matcher.Filter builds that Filter), on that scan's
// goroutine.
type Bound struct {
	m    *Matcher
	ix   *index.Index
	t    index.AnnTables // taken on the first Plan or Match
	rows index.Rows      // likewise
	// plans holds, by schema id, each schema's plan; nil until the
	// first Plan or Match, and a schema's entry zero until its first
	// candidate.
	plans []plan
}

// plan is one schema's verdict and, for a judge-each schema, the
// predicates left to judge with the columns each reads.
type plan struct {
	verdict index.Verdict // 0 until planned
	judged  []judged
}

// judged is a predicate a schema leaves to judge per candidate, and
// the columns of that schema it reads.
type judged struct {
	c    *compiled
	cols []column
}

// column is one table column a predicate reads: the value codes by
// slot, and the attribute's dictionary they index. For an equality
// predicate, eq is its value's code in that dictionary: dictionary
// values are distinct, so the value is the document's exactly when the
// codes are equal.
type column struct {
	codes []uint32
	dict  *index.AnnColumn
	eq    uint32
}

// Bind binds the matcher to ix's annotation tables. A nil Matcher binds
// to a nil Bound, which matches every document.
func (m *Matcher) Bind(ix *index.Index) *Bound {
	if m == nil {
		return nil
	}
	return &Bound{m: m, ix: ix}
}

// Filter returns the filter a scan of ix admits through: the matcher
// bound to ix's tables, judging each schema once (Bound.Plan) and the
// candidates of a judge-each schema one by one (Bound.Match), after a
// host restriction to host ("" for none; see index.Filter). A nil
// Matcher filters by host alone, and with no host either returns nil,
// the unfiltered scan.
func (m *Matcher) Filter(ix *index.Index, host string) *index.Filter {
	if m == nil {
		if host == "" {
			return nil
		}
		return &index.Filter{Host: host}
	}
	b := m.Bind(ix)
	return &index.Filter{Host: host, Match: b.Match, Schema: b.Plan}
}

// Plan returns the verdict on every document of schema s of the bound
// index, planning the schema if no candidate of it came before.
func (b *Bound) Plan(s uint32) index.Verdict {
	if b == nil {
		return index.AdmitAll
	}
	b.begin()
	return b.planOf(s).verdict
}

// Match reports whether document id of the bound index satisfies
// every predicate; its title and text are read only when some
// predicate finds no relevant annotation.
func (b *Bound) Match(id int) bool {
	if b == nil {
		return true
	}
	b.begin()
	var s, slot uint32
	if id < len(b.t.Schema) {
		s, slot = b.t.Schema[id], b.t.Slot[id]
	}
	p := b.planOf(s)
	if p.verdict != index.JudgeEach {
		return p.verdict == index.AdmitAll
	}
	if len(p.judged) == 1 && len(p.judged[0].cols) == 1 {
		// A lone one-column predicate: one code, compared or read.
		j := &p.judged[0]
		col := &j.cols[0]
		code := col.codes[slot]
		if j.c.p.Op == OpEq {
			return code == col.eq
		}
		if num, ok := col.dict.Num(code); ok {
			return j.c.inBounds(num)
		}
		return j.c.matchText(b.docTokens(id))
	}
	var doc *docTokens
	for i := range p.judged {
		j := &p.judged[i]
		switch j.c.inTable(j.cols, slot) {
		case reject:
			return false
		case askText:
			if doc == nil {
				doc = b.docTokens(id)
			}
			if !j.c.matchText(doc) {
				return false
			}
		}
	}
	return true
}

// docTokens reads document id's row and tokenizes it for the text
// fallback.
func (b *Bound) docTokens(id int) *docTokens {
	d := b.rows.Doc(id)
	return newDocTokens(d.Title, d.Text)
}

// begin takes the views on the scan's first candidate: its read lock
// is held from there to its last, so no writer touches the tables while
// they are in use, and they cover every candidate the scan hands over.
func (b *Bound) begin() {
	if b.plans == nil {
		b.t, b.rows = b.ix.AnnotationTables(), b.ix.RowView()
		b.plans = make([]plan, len(b.t.Schemas))
	}
}

// planOf returns schema s's plan, planning it on its first call.
func (b *Bound) planOf(s uint32) *plan {
	p := &b.plans[s]
	if p.verdict == 0 {
		*p = b.plan(s)
	}
	return p
}

// plan resolves, for schema s, the columns each predicate reads and
// the verdict their ranges give: RejectAll if some predicate rejects
// every slot, AdmitAll if every predicate admits every slot, and else
// JudgeEach, with the predicates that do not admit every slot left to
// judge.
func (b *Bound) plan(s uint32) plan {
	sch, ranges := &b.t.Schemas[s], b.t.Ranges[s]
	judge := make([]judged, 0, len(b.m.preds))
	cols := make([]column, 0, len(b.m.preds)*len(sch.Attrs))
	for i := range b.m.preds {
		c := &b.m.preds[i]
		var (
			from       = len(cols)
			admitAll   bool // some column it reads holds readings all in bounds
			missesAll  = true
			readsEvery bool // some column it reads has a reading in every slot
		)
		for j, a := range sch.Attrs {
			dict := b.t.Column(a)
			if !c.reads(dict.Attr) {
				continue
			}
			col := column{codes: sch.Codes[j], dict: dict}
			if c.p.Op == OpEq {
				code, ok := dict.Code(c.p.Value)
				if !ok {
					// The value is no slot's: the column rejects every one.
					return plan{verdict: index.RejectAll}
				}
				col.eq = code
			} else {
				r := &ranges[j]
				admitAll = admitAll || r.Words == 0 && r.NaN == 0 && c.inBounds(r.Min) && c.inBounds(r.Max)
				missesAll = missesAll && (r.Min > r.Max || c.misses(r.Min, r.Max))
				readsEvery = readsEvery || r.Words == 0
			}
			cols = append(cols, col)
		}
		switch {
		case admitAll:
			continue
		case readsEvery && missesAll:
			return plan{verdict: index.RejectAll}
		}
		judge = append(judge, judged{c: c, cols: cols[from:len(cols):len(cols)]})
	}
	if len(judge) == 0 {
		return plan{verdict: index.AdmitAll}
	}
	return plan{verdict: index.JudgeEach, judged: judge}
}

// inTable evaluates one predicate against the columns it reads, at one
// slot of their table (steps 1 and 2, as overMap).
func (c *compiled) inTable(cols []column, slot uint32) verdict {
	found := false
	for i := range cols {
		col := &cols[i]
		code := col.codes[slot]
		if c.p.Op == OpEq {
			if code == col.eq {
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

// misses reports whether no value in [lo, hi] satisfies the
// predicate's comparison.
func (c *compiled) misses(lo, hi float64) bool {
	switch c.p.Op {
	case OpLt:
		return !(lo < c.p.Hi)
	case OpLe:
		return !(lo <= c.p.Hi)
	case OpGt:
		return !(hi > c.p.Lo)
	case OpGe:
		return !(hi >= c.p.Lo)
	case OpRange:
		return !(hi >= c.p.Lo && lo <= c.p.Hi)
	}
	return true
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
