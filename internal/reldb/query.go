package reldb

import (
	"math"
	"strings"
)

// Pred is a predicate over a row. Predicates compose conjunctively in
// Select, mirroring what an HTML form submission expresses: every bound
// input constrains the result set, unbound inputs do not.
type Pred interface {
	// Match reports whether the row satisfies the predicate.
	Match(t *Table, r Row) bool
}

// eqPred matches rows whose column equals a value (case-insensitive for
// string/text columns, as form back-ends invariably are).
type eqPred struct {
	col string
	val Value
}

func (p eqPred) Match(t *Table, r Row) bool {
	i := t.ColIndex(p.col)
	if i < 0 {
		return false
	}
	v := r[i]
	if v.Kind == KindInt {
		return p.val.Kind == KindInt && v.Int == p.val.Int
	}
	return strings.EqualFold(v.Str, p.val.Str)
}

// Eq matches rows where col equals val.
func Eq(col string, val Value) Pred { return eqPred{col, val} }

// rangePred matches rows whose int column lies in [lo,hi].
type rangePred struct {
	col    string
	lo, hi int64
}

func (p rangePred) Match(t *Table, r Row) bool {
	i := t.ColIndex(p.col)
	if i < 0 || r[i].Kind != KindInt {
		return false
	}
	return r[i].Int >= p.lo && r[i].Int <= p.hi
}

// Range matches rows where lo ≤ col ≤ hi. Use OpenLow/OpenHigh for
// half-open ranges, which is what a form with only one of min/max filled
// submits.
func Range(col string, lo, hi int64) Pred { return rangePred{col, lo, hi} }

// OpenLow is the sentinel lower bound for a range with no minimum.
const OpenLow = math.MinInt64

// OpenHigh is the sentinel upper bound for a range with no maximum.
const OpenHigh = math.MaxInt64

// containsPred matches rows where every keyword occurs somewhere in the
// row's text rendering — the semantics of a site "search box" (§4.1).
type containsPred struct {
	keywords []string
}

func (p containsPred) Match(t *Table, r Row) bool {
	if len(p.keywords) == 0 {
		return true
	}
	var b strings.Builder
	for j, v := range r {
		if j > 0 {
			b.WriteByte(' ')
		}
		b.WriteString(strings.ToLower(v.String()))
	}
	text := b.String()
	for _, kw := range p.keywords {
		if !strings.Contains(text, strings.ToLower(kw)) {
			return false
		}
	}
	return true
}

// ContainsAll matches rows containing every keyword in their text
// rendering, case-insensitively.
func ContainsAll(keywords ...string) Pred { return containsPred{keywords} }

// containsInPred restricts keyword matching to named columns — the
// semantics of a search box that queries titles/descriptions but not
// the catalog label.
type containsInPred struct {
	cols     []string
	keywords []string
}

func (p containsInPred) Match(t *Table, r Row) bool {
	if len(p.keywords) == 0 {
		return true
	}
	var b strings.Builder
	for _, col := range p.cols {
		if i := t.ColIndex(col); i >= 0 {
			b.WriteString(strings.ToLower(r[i].String()))
			b.WriteByte(' ')
		}
	}
	text := b.String()
	for _, kw := range p.keywords {
		if !strings.Contains(text, strings.ToLower(kw)) {
			return false
		}
	}
	return true
}

// ContainsAllIn matches rows whose named columns jointly contain every
// keyword, case-insensitively.
func ContainsAllIn(cols []string, keywords ...string) Pred {
	return containsInPred{cols: cols, keywords: keywords}
}

// Select returns the indices of rows satisfying all preds, in table
// order. Returning indices rather than rows keeps result identity stable
// for coverage accounting.
func (t *Table) Select(preds ...Pred) []int {
	var out []int
	for i, r := range t.rows {
		ok := true
		for _, p := range preds {
			if !p.Match(t, r) {
				ok = false
				break
			}
		}
		if ok {
			out = append(out, i)
		}
	}
	return out
}
