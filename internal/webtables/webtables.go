// Package webtables is the aggregation substrate of §6: it extracts
// HTML tables from a crawled corpus, filters the relational-quality
// ones (the WebTables project of reference [3]), and builds the
// attribute-correlation statistics database (ACSDb) that powers the
// semantic services — synonym suggestion, schema auto-complete,
// attribute values, and entity properties.
package webtables

import (
	"sort"
	"strings"

	"deepweb/internal/htmlx"
	"deepweb/internal/webx"
)

// RawTable is one extracted HTML table with provenance.
type RawTable struct {
	URL     string
	Headers []string // normalized lower-case attribute names
	Rows    [][]string
}

// ExtractFromPages pulls every table out of the pages.
func ExtractFromPages(pages []*webx.Page) []RawTable {
	var out []RawTable
	for _, p := range pages {
		for _, t := range htmlx.ExtractTables(p.Doc) {
			rt := RawTable{URL: p.URL, Rows: t.Rows}
			for _, h := range t.Headers {
				rt.Headers = append(rt.Headers, normalizeAttr(h))
			}
			out = append(out, rt)
		}
	}
	return out
}

func normalizeAttr(h string) string {
	return strings.Join(strings.Fields(strings.ToLower(h)), " ")
}

// QualityFilter keeps tables that look relational: a header row, at
// least two columns, at least one data row, and consistent row arity.
// (WebTables found ~1.1% of raw HTML tables are high-quality relations;
// the filter is what separates layout tables from data.)
func QualityFilter(ts []RawTable) []RawTable {
	var out []RawTable
	for _, t := range ts {
		if len(t.Headers) < 2 || len(t.Rows) < 1 {
			continue
		}
		ok := true
		for _, r := range t.Rows {
			if len(r) != len(t.Headers) {
				ok = false
				break
			}
		}
		if hasEmptyHeader(t.Headers) {
			ok = false
		}
		if ok {
			out = append(out, t)
		}
	}
	return out
}

func hasEmptyHeader(hs []string) bool {
	for _, h := range hs {
		if h == "" {
			return true
		}
	}
	return false
}

// ACSDb holds attribute correlation statistics over a corpus of
// schemas: how often each attribute appears and how often pairs
// co-occur (reference [3]'s core structure).
type ACSDb struct {
	Schemas int
	Freq    map[string]int
	Pair    map[[2]string]int
}

// BuildACSDb accumulates statistics over the filtered tables' schemas.
func BuildACSDb(ts []RawTable) *ACSDb {
	a := &ACSDb{Freq: map[string]int{}, Pair: map[[2]string]int{}}
	for _, t := range ts {
		a.AddSchema(t.Headers)
	}
	return a
}

// AddSchema folds one schema (set of attribute names) into the stats.
// Duplicate names within a schema count once.
func (a *ACSDb) AddSchema(attrs []string) {
	uniq := dedupe(attrs)
	a.Schemas++
	for _, x := range uniq {
		a.Freq[x]++
	}
	for i := 0; i < len(uniq); i++ {
		for j := i + 1; j < len(uniq); j++ {
			a.Pair[pairKey(uniq[i], uniq[j])]++
		}
	}
}

func pairKey(x, y string) [2]string {
	if x > y {
		x, y = y, x
	}
	return [2]string{x, y}
}

func dedupe(xs []string) []string {
	seen := map[string]bool{}
	var out []string
	for _, x := range xs {
		if x != "" && !seen[x] {
			seen[x] = true
			out = append(out, x)
		}
	}
	return out
}

// CoOccur returns how many schemas contain both attributes.
func (a *ACSDb) CoOccur(x, y string) int { return a.Pair[pairKey(x, y)] }

// pCond is P(x | given): co-occurrence over given's frequency.
func (a *ACSDb) pCond(x, given string) float64 {
	f := a.Freq[given]
	if f == 0 {
		return 0
	}
	return float64(a.CoOccur(x, given)) / float64(f)
}

// Scored pairs an item with a score for ranked service responses.
type Scored struct {
	Name  string
	Score float64
}

// SchemaAutocomplete returns up to k attributes that database designers
// most often combine with the given ones (§6: "akin to a schema
// auto-complete"), ranked by mean conditional probability against the
// given set.
func (a *ACSDb) SchemaAutocomplete(given []string, k int) []Scored {
	giv := dedupe(given)
	if len(giv) == 0 || k <= 0 {
		return nil
	}
	in := map[string]bool{}
	for _, g := range giv {
		in[g] = true
	}
	var out []Scored
	for cand := range a.Freq {
		if in[cand] {
			continue
		}
		var s float64
		for _, g := range giv {
			s += a.pCond(cand, g)
		}
		s /= float64(len(giv))
		if s > 0 {
			out = append(out, Scored{cand, s})
		}
	}
	sortScored(out)
	if k < len(out) {
		out = out[:k]
	}
	return out
}

// Synonyms returns attributes likely synonymous with attr (§6's schema-
// matching component): candidates that essentially never co-occur with
// attr (synonyms don't appear twice in one schema) but share its
// context — they co-occur with the same other attributes. Ranked by
// context overlap.
func (a *ACSDb) Synonyms(attr string, k int) []Scored {
	attr = normalizeAttr(attr)
	if a.Freq[attr] == 0 || k <= 0 {
		return nil
	}
	ctx := a.contextOf(attr)
	var out []Scored
	for cand := range a.Freq {
		if cand == attr {
			continue
		}
		// Appears together with attr → not a synonym.
		if float64(a.CoOccur(attr, cand)) > 0.05*float64(min(a.Freq[attr], a.Freq[cand])) {
			continue
		}
		cctx := a.contextOf(cand)
		score := contextOverlap(ctx, cctx)
		if score > 0 {
			out = append(out, Scored{cand, score})
		}
	}
	sortScored(out)
	if k < len(out) {
		out = out[:k]
	}
	return out
}

// contextOf returns P(z|attr) over co-occurring attributes z.
func (a *ACSDb) contextOf(attr string) map[string]float64 {
	out := map[string]float64{}
	for pk, n := range a.Pair {
		var other string
		switch attr {
		case pk[0]:
			other = pk[1]
		case pk[1]:
			other = pk[0]
		default:
			continue
		}
		out[other] = float64(n) / float64(a.Freq[attr])
	}
	return out
}

func contextOverlap(a, b map[string]float64) float64 {
	var s float64
	for z, pa := range a {
		if pb, ok := b[z]; ok {
			if pa < pb {
				s += pa
			} else {
				s += pb
			}
		}
	}
	return s
}

func sortScored(xs []Scored) {
	sort.Slice(xs, func(i, j int) bool {
		if xs[i].Score != xs[j].Score {
			return xs[i].Score > xs[j].Score
		}
		return xs[i].Name < xs[j].Name
	})
}
