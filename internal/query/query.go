// Package query is the structured-predicate half of the search API:
// a small query DSL — `attr:value` equality terms, numeric comparisons
// (`price<10000`) and inclusive ranges (`year:2005..2009`) — plus the
// matcher that evaluates parsed predicates against a document's
// surfacing-time annotations (§5.1) and, failing those, against typed
// tokens extracted from the document text (§4.1). The package is what
// lets the vertical-search scenarios the paper motivates ("used cars
// under $10k") run against the surfaced corpus through the same
// serving path as any keyword query.
//
// Resolution order per predicate mirrors how much the engine knows
// about a document:
//
//  1. An annotation on the queried attribute is authoritative: it is
//     the binding that generated the page, so a contradicting value
//     rejects the document no matter what its text says (the paper's
//     "used ford focus 1993" example, inverted into filtering).
//  2. For numeric predicates, annotations on *type-compatible*
//     attributes also answer: a `price<10000` filter is satisfied by a
//     `minprice=3800` annotation because both hypothesize to the price
//     type (textutil.HypothesizeType).
//  3. With no relevant annotation, typed tokens from the document text
//     stand in — surfaced result pages render their records' numbers
//     as plain tokens, so a price filter scans the page's numbers.
//
// Steps 1 and 2 read the index's annotation schema tables (one
// dictionary per attribute; one table per attribute set, a column of
// value codes per attribute and a slot per document): a Matcher is
// bound to them once per query (Bind; Filter builds the index.Filter a
// scan takes), and on each schema's first candidate — under the
// index's read lock, held for the whole scan — the Bound settles which
// of the schema's columns each predicate reads and judges the schema
// whole from those columns' ranges (index.NumRange): admit every
// document, reject every one, or judge each. The scan reads that
// verdict per candidate, so a candidate of a decided schema costs its
// schema alone; one of a judge-each schema costs its slot, and one
// code and one dictionary entry per column a predicate left to judge
// reads; the value's numeric reading was parsed once, when the
// dictionary first saw it. Matcher.Match, taking a map, evaluates the
// same steps straight off the map: the reference the bound path is
// checked against.
// Step 3 is the cold path, and the only one that reads the document:
// it tokenizes its title and text.
//
// Predicates AND together. Parsing and matching are deterministic pure
// functions, so a predicate list can participate in cache keys via
// Key, which serializes the canonical (sorted, deduplicated) form.
package query

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
)

// Op is a predicate's comparison operator.
type Op uint8

const (
	// OpEq is `attr:value` equality.
	OpEq Op = iota
	// OpLt / OpLe / OpGt / OpGe are the numeric comparisons
	// `attr<n`, `attr<=n`, `attr>n`, `attr>=n`.
	OpLt
	OpLe
	OpGt
	OpGe
	// OpRange is the inclusive numeric range `attr:lo..hi`.
	OpRange
)

// String returns the operator as it appears in the DSL.
func (op Op) String() string {
	switch op {
	case OpEq:
		return ":"
	case OpLt:
		return "<"
	case OpLe:
		return "<="
	case OpGt:
		return ">"
	case OpGe:
		return ">="
	case OpRange:
		return ".."
	}
	return "?"
}

// Predicate is one parsed filter term. Attr and Value are stored
// lower-cased (annotations are stored lower-cased too). For numeric
// operators, Lo and/or Hi carry the parsed bounds: Lo for OpGt/OpGe,
// Hi for OpLt/OpLe, both for OpRange; OpEq uses only Value.
type Predicate struct {
	Attr  string
	Op    Op
	Value string
	Lo    float64
	Hi    float64
}

// Eq builds an equality predicate, the common programmatic case
// (mediator bindings, tests). Inputs are lower-cased to match Parse.
func Eq(attr, value string) Predicate {
	return Predicate{Attr: strings.ToLower(attr), Op: OpEq, Value: strings.ToLower(value)}
}

// String renders the predicate back in DSL form; Parse(p.String())
// round-trips.
func (p Predicate) String() string {
	switch p.Op {
	case OpEq:
		return p.Attr + ":" + p.Value
	case OpRange:
		return p.Attr + ":" + formatNum(p.Lo) + ".." + formatNum(p.Hi)
	default:
		return p.Attr + p.Op.String() + p.Value
	}
}

// formatNum renders a bound the way a user would type it: integers
// without a decimal point.
func formatNum(v float64) string {
	return strconv.FormatFloat(v, 'f', -1, 64)
}

// validAttr reports whether s is a legal attribute name: a letter
// followed by letters, digits or underscores. The shape matches form
// input names, which is where annotation attributes come from.
func validAttr(s string) bool {
	if s == "" {
		return false
	}
	for i, r := range s {
		switch {
		case r >= 'a' && r <= 'z':
		case i > 0 && (r >= '0' && r <= '9' || r == '_'):
		default:
			return false
		}
	}
	return true
}

// IsNumber reports whether s is a plain unsigned integer token — the
// shape numeric values take after tokenization. Shared with the
// mediator's token binding so there is one definition of "numeric
// token" across the query surface.
func IsNumber(s string) bool {
	if s == "" {
		return false
	}
	for _, r := range s {
		if r < '0' || r > '9' {
			return false
		}
	}
	return true
}

// Parse parses one predicate term:
//
//	attr:value      equality ("make:ford")
//	attr:lo..hi     inclusive numeric range ("year:2005..2009")
//	attr<n attr<=n  numeric comparisons ("price<10000")
//	attr>n attr>=n
//
// Attribute names are lower-cased and must be a letter followed by
// letters/digits/underscores; comparison and range bounds must be
// numbers (NaN is not one). Anything else is an error spelling out
// what was wrong.
func Parse(s string) (Predicate, error) {
	s = strings.ToLower(strings.TrimSpace(s))
	if s == "" {
		return Predicate{}, fmt.Errorf("empty predicate")
	}
	// Comparison operators first: "<=" and ">=" before their one-char
	// prefixes.
	for _, c := range []struct {
		tok string
		op  Op
	}{{"<=", OpLe}, {">=", OpGe}, {"<", OpLt}, {">", OpGt}} {
		if i := strings.Index(s, c.tok); i >= 0 {
			attr, val := s[:i], s[i+len(c.tok):]
			if !validAttr(attr) {
				return Predicate{}, fmt.Errorf("%q: attribute must be a letter followed by letters, digits or underscores", attr)
			}
			n, err := strconv.ParseFloat(val, 64)
			if err != nil || math.IsNaN(n) {
				return Predicate{}, fmt.Errorf("%q: %s needs a numeric bound, got %q", s, c.tok, val)
			}
			p := Predicate{Attr: attr, Op: c.op, Value: val}
			if c.op == OpLt || c.op == OpLe {
				p.Hi = n
			} else {
				p.Lo = n
			}
			return p, nil
		}
	}
	i := strings.IndexByte(s, ':')
	if i < 0 {
		return Predicate{}, fmt.Errorf("%q: no operator (want attr:value, attr:lo..hi, or attr<n / attr<=n / attr>n / attr>=n)", s)
	}
	attr, val := s[:i], s[i+1:]
	if !validAttr(attr) {
		return Predicate{}, fmt.Errorf("%q: attribute must be a letter followed by letters, digits or underscores", attr)
	}
	if val == "" {
		return Predicate{}, fmt.Errorf("%q: empty value", s)
	}
	if j := strings.Index(val, ".."); j >= 0 {
		lo, errLo := strconv.ParseFloat(val[:j], 64)
		hi, errHi := strconv.ParseFloat(val[j+2:], 64)
		if errLo != nil || errHi != nil || math.IsNaN(lo) || math.IsNaN(hi) {
			return Predicate{}, fmt.Errorf("%q: range bounds must be numbers, got %q..%q", s, val[:j], val[j+2:])
		}
		if lo > hi {
			return Predicate{}, fmt.Errorf("%q: range is empty (%v > %v)", s, lo, hi)
		}
		// Value takes the canonical spelling of the bounds, so one range
		// is one predicate (and one cache key) however it was typed.
		return Predicate{Attr: attr, Op: OpRange, Value: formatNum(lo) + ".." + formatNum(hi), Lo: lo, Hi: hi}, nil
	}
	return Predicate{Attr: attr, Op: OpEq, Value: val}, nil
}

// Extract splits a free-text query into its keyword part and any
// embedded DSL predicates, so `used cars price<10000` works with zero
// client changes. A whitespace-delimited token becomes a predicate
// only when it parses cleanly; a token that merely looks like one
// ("re:invent", "3:2") stays keyword text, so no previously-valid
// query becomes an error through this path.
func Extract(q string) (rest string, preds []Predicate) {
	fields := strings.Fields(q)
	kept := make([]string, 0, len(fields))
	for _, f := range fields {
		if strings.ContainsAny(f, ":<>") {
			if p, err := Parse(f); err == nil {
				preds = append(preds, p)
				continue
			}
		}
		kept = append(kept, f)
	}
	return strings.Join(kept, " "), preds
}

// Canonical returns the canonical form of a predicate list: sorted
// and deduplicated, so lists that differ only in order or repetition
// compare (and cache) equal. The input is not modified; an empty or
// nil list returns nil.
func Canonical(preds []Predicate) []Predicate {
	if len(preds) == 0 {
		return nil
	}
	out := append([]Predicate(nil), preds...)
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Attr != b.Attr {
			return a.Attr < b.Attr
		}
		if a.Op != b.Op {
			return a.Op < b.Op
		}
		if a.Value != b.Value {
			return a.Value < b.Value
		}
		if a.Lo != b.Lo {
			return a.Lo < b.Lo
		}
		return a.Hi < b.Hi
	})
	dedup := out[:1]
	for _, p := range out[1:] {
		if p != dedup[len(dedup)-1] {
			dedup = append(dedup, p)
		}
	}
	return dedup
}

// Key serializes a predicate list canonically for use inside cache
// keys: two lists produce the same key iff they are the same filter
// (order- and duplicate-insensitive). Empty and nil lists produce "".
func Key(preds []Predicate) string {
	if len(preds) == 0 {
		return ""
	}
	var b strings.Builder
	for i, p := range Canonical(preds) {
		if i > 0 {
			b.WriteByte('\x01')
		}
		b.WriteString(p.String())
	}
	return b.String()
}
