package index

import (
	"context"
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

// The store is columnar. Each attribute has a dictionary — value to
// code, code to value, the value's numeric reading, and how many live
// documents carry it — and each document has a row of (attribute id,
// value code) pairs in one flat arena behind an offset table. What a
// query needs is then computed at the cheapest point that can know it:
//
//   - once per distinct value, at Annotate time: the dictionary code,
//     strconv.ParseFloat, the word count that bounds the n-gram probe
//     below;
//   - once per query: which attributes a predicate reads (a
//     query.Bound, on its first candidate) and which dictionary values
//     the query text mentions (valuesMentioned);
//   - per candidate: a walk over the row's pairs, indexing arrays.
//
// Nothing here is persisted: snapshots carry annotations as attribute
// and value strings, and Annotate rebuilds the columns during a load,
// in doc-id order, so rows sit in the arena in the order a scan reads
// its candidates.

// AnnPair is one annotation in a document's row: the attribute's id
// (an index into AnnotationColumns) and the value's code in that
// attribute's dictionary.
type AnnPair struct {
	Attr, Code uint32
}

// AnnValue is one dictionary entry, everything a filter reads of an
// annotation value, computed when the value was first seen.
type AnnValue struct {
	Text  string  // the value, lower-cased and trimmed
	Num   float64 // strconv.ParseFloat(Text, 64)
	IsNum bool    // whether that parse succeeded
}

// NewAnnValue reads an annotation value the way the store does.
func NewAnnValue(text string) AnnValue {
	// A failed ParseFloat allocates an error holding a copy of its
	// input, and most distinct values are prose (titles, summaries):
	// only text whose first byte can begin a float literal — a sign, a
	// digit, a point, "inf", "nan" in either case — is worth handing
	// to it.
	if text == "" || strings.IndexByte("+-.0123456789inIN", text[0]) < 0 {
		return AnnValue{Text: text}
	}
	num, err := strconv.ParseFloat(text, 64)
	return AnnValue{Text: text, Num: num, IsNum: err == nil}
}

// AnnColumn is a read-only view of one attribute's dictionary, indexed
// by value code, valid for the scan that took it (see
// AnnotationColumns).
type AnnColumn struct {
	Attr   string
	Values []AnnValue
}

// annColumn is one attribute's dictionary.
type annColumn struct {
	name    string
	codes   map[string]uint32 // value -> code
	values  []AnnValue        // code -> value
	support []int32           // code -> live documents carrying it
	// maxWords is the most space-separated words any value has: the
	// longest query n-gram worth probing codes with.
	maxWords int
}

// rowRef locates a document's row in the pair arena.
type rowRef struct {
	off, n uint32
}

// annStore carries annotations parallel to docs, under the table lock.
type annStore struct {
	attrs map[string]uint32 // attribute name -> id
	cols  []*annColumn      // attribute id -> dictionary
	rows  []rowRef          // doc id -> row; n == 0 for an unannotated document
	pairs []AnnPair         // row arena
	// waste counts arena pairs no row points at any more (deleted
	// documents, rows that moved to grow); reclaim rewrites the arena
	// once they outnumber the live ones.
	waste int
}

// Annotate attaches attribute=value annotations to an indexed document
// (typically the form binding that surfaced it). Values are stored
// lower-cased; empty values are ignored. A document holds one value per
// attribute: annotating an attribute again replaces its value, and
// repeating the value it already has changes nothing.
func (ix *Index) Annotate(docID int, anns map[string]string) {
	if docID < 0 {
		return
	}
	ix.mu.Lock()
	defer ix.mu.Unlock()
	ix.version.Add(1)
	ix.annotateLocked(docID, anns)
	ix.ann.reclaim()
}

// annotateLocked is Annotate for a caller holding the write lock, who
// reclaims the arena once its writes are done.
func (ix *Index) annotateLocked(docID int, anns map[string]string) {
	for attr, v := range anns {
		attr = strings.ToLower(strings.TrimSpace(attr))
		v = strings.ToLower(strings.TrimSpace(v))
		if attr == "" || v == "" {
			continue
		}
		ix.ann.set(docID, attr, v)
	}
}

// column returns the attribute's id and dictionary, creating both on
// first sight.
func (st *annStore) column(attr string) (uint32, *annColumn) {
	a, ok := st.attrs[attr]
	if !ok {
		a = uint32(len(st.cols))
		st.attrs[attr] = a
		st.cols = append(st.cols, &annColumn{name: attr, codes: map[string]uint32{}})
	}
	return a, st.cols[a]
}

// code returns the value's dictionary code, interning it on first
// sight.
func (col *annColumn) code(v string) uint32 {
	c, ok := col.codes[v]
	if !ok {
		c = uint32(len(col.values))
		col.codes[v] = c
		col.values = appendDoubling(col.values, NewAnnValue(v))
		col.support = appendDoubling(col.support, 0)
		if w := strings.Count(v, " ") + 1; w > col.maxWords {
			col.maxWords = w
		}
	}
	return c
}

// appendDoubling is append with capacity doubled on growth. The arena
// and the dictionaries are filled one element at a time during a load,
// where append's 1.25x steps for large slices re-copy them some five
// times over — garbage that lands in the loading process's peak RSS.
func appendDoubling[T any](s []T, v T) []T {
	if len(s) == cap(s) {
		grown := make([]T, len(s), max(2*cap(s), 16))
		copy(grown, s)
		s = grown
	}
	return append(s, v)
}

// set writes one annotation into the document's row, keeping the
// dictionaries' support counts equal to the live rows. The caller
// holds the write lock.
func (st *annStore) set(docID int, attr, v string) {
	a, col := st.column(attr)
	c := col.code(v)
	if docID >= len(st.rows) {
		st.rows = append(st.rows, make([]rowRef, docID+1-len(st.rows))...)
	}
	ref, row := st.rows[docID], st.row(docID)
	for i := range row {
		if row[i].Attr == a {
			if row[i].Code != c {
				col.support[row[i].Code]--
				col.support[c]++
				row[i].Code = c
			}
			return
		}
	}
	// A new attribute for this document. A row grows in place only at
	// the arena's tail (where a document annotated once, the normal
	// case, always is); from anywhere else it moves there first.
	if int(ref.off+ref.n) != len(st.pairs) {
		st.waste += len(row)
		ref.off = uint32(len(st.pairs))
		st.pairs = append(st.pairs, row...)
	}
	st.pairs = appendDoubling(st.pairs, AnnPair{Attr: a, Code: c})
	ref.n++
	st.rows[docID] = ref
	col.support[c]++
}

// deleteDoc drops a deleted document's annotations and releases its
// vocabulary support, so a value that survives only on dead documents
// stops steering AnnotatedTopK. The caller holds the write lock.
func (st *annStore) deleteDoc(docID int) {
	row := st.row(docID)
	if len(row) == 0 {
		return
	}
	for _, p := range row {
		st.cols[p.Attr].support[p.Code]--
	}
	st.waste += len(row)
	st.rows[docID] = rowRef{}
	st.reclaim()
}

// row returns the document's pairs, a view into the arena valid while
// the caller holds the table lock; empty for an unannotated document.
func (st *annStore) row(docID int) []AnnPair {
	if docID < 0 || docID >= len(st.rows) {
		return nil
	}
	ref := st.rows[docID]
	return st.pairs[ref.off : ref.off+ref.n]
}

// reclaim rewrites the arena once dead pairs outnumber live ones, so
// churn (delete, re-annotate) costs amortized O(1) per pair and the
// arena stays within twice the live rows.
func (st *annStore) reclaim() {
	if st.waste > len(st.pairs)/2 {
		st.rewrite(nil)
	}
}

// rewrite copies the live rows into a fresh arena, renumbering them
// through newID (-1 drops a document) when Compact passes one. Codes
// and attribute ids are untouched: dictionaries only grow.
func (st *annStore) rewrite(newID []int32) {
	size := len(st.rows)
	if newID != nil {
		size = len(newID) // new ids are below the old table's length
	}
	rows := make([]rowRef, size)
	pairs := make([]AnnPair, 0, len(st.pairs)-st.waste)
	end := 0 // one past the highest id that keeps a row
	for id := range st.rows {
		row, to := st.row(id), id
		if newID != nil {
			if id >= len(newID) || newID[id] < 0 {
				continue
			}
			to = int(newID[id])
		}
		if len(row) == 0 {
			continue
		}
		rows[to] = rowRef{off: uint32(len(pairs)), n: uint32(len(row))}
		pairs = append(pairs, row...)
		end = max(end, to+1)
	}
	st.rows, st.pairs, st.waste = rows[:end], pairs, 0
}

// asMap materializes a row as attribute -> value. The caller holds the
// table lock.
func (st *annStore) asMap(row []AnnPair) map[string]string {
	out := make(map[string]string, len(row))
	for _, p := range row {
		col := st.cols[p.Attr]
		out[col.name] = col.values[p.Code].Text
	}
	return out
}

// AnnotationsOf returns a document's annotations as a fresh map (nil
// if none). It is the slow, convenient view — experiments, the
// reference filter; serving reads rows in place through a Filter's
// Match.
func (ix *Index) AnnotationsOf(docID int) map[string]string {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	row := ix.ann.row(docID)
	if len(row) == 0 {
		return nil
	}
	return ix.ann.asMap(row)
}

// AnnotationColumns returns a view of every attribute's dictionary,
// indexed by attribute id; never nil. It takes no lock: call it only
// from inside the Match of a Filter handed to TopK or AnnotatedTopK,
// under the read lock the scan holds throughout, so the views cover
// every row that scan hands over.
func (ix *Index) AnnotationColumns() []AnnColumn {
	out := make([]AnnColumn, len(ix.ann.cols))
	for a, col := range ix.ann.cols {
		out[a] = AnnColumn{Attr: col.name, Values: col.values}
	}
	return out
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
// live document the query matched (after the filter), not just the
// re-ranked prefix. The vocabulary probe, the base ranking and the
// adjustment run in one read-locked section, so a concurrent Compact
// cannot renumber rows between the ranking and the factors read for it.
func (ix *Index) AnnotatedTopK(ctx context.Context, query string, k, offset int, f *Filter) ([]Result, int, error) {
	if k <= 0 {
		return nil, 0, ctx.Err()
	}
	if offset < 0 {
		offset = 0
	}
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	mentioned := ix.ann.valuesMentioned(query)
	if len(mentioned) == 0 {
		// No annotation vocabulary intersects the query: degrade to the
		// plain BM25 page, with no over-fetch at all.
		return ix.topKLocked(ctx, query, k, offset, f)
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
	base, total, err := ix.topKLocked(ctx, query, fetch, 0, f)
	if err != nil || len(base) == 0 {
		return base, total, err
	}
	head := base
	if len(head) > rerankDepth {
		head = head[:rerankDepth]
	}
	ix.ann.adjust(head, mentioned)
	sortResults(head)
	return pageOf(base, k, offset), total, nil
}

// mention is one attribute the query names a value of.
type mention struct {
	attr string
	pair AnnPair
}

// valuesMentioned returns, per annotation attribute, the value the
// query mentions, sorted by attribute name; empty when the query
// touches no annotation vocabulary. A value is mentioned when it equals
// a contiguous run of the query's tokens, so the lookup probes each
// dictionary with the query's n-grams — a few hundred map probes —
// instead of scanning every value for containment. Where the query
// mentions several values of one attribute the longest wins (multi-word
// values like "santa fe" beat their substrings), then the one that
// starts earliest: a total rule, so the choice never depends on map
// order. The caller holds the table lock.
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
	for a, col := range st.cols {
		var best uint32 // code of the value kept so far, bestLen bytes long
		bestLen := 0
		for i := range toks {
			for j := i + 1; j <= len(toks) && j-i <= col.maxWords; j++ {
				gram := q[starts[i] : starts[j]-1]
				c, ok := col.codes[gram]
				if !ok || col.support[c] <= 0 {
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
			out = append(out, mention{attr: col.name, pair: AnnPair{Attr: uint32(a), Code: best}})
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].attr < out[j].attr })
	return out
}

// adjust applies the §5.1 boost/demote factors to a ranked page in
// place. Factors multiply in sorted-attribute order: float products do
// not commute in the last bit, so any other order would make a query
// mentioning two attributes score — and break near-ties — differently
// from run to run. The caller holds the table lock.
func (st *annStore) adjust(rs []Result, mentioned []mention) {
	for i := range rs {
		row := st.row(rs[i].DocID)
		for _, m := range mentioned {
			for _, have := range row {
				if have.Attr != m.pair.Attr {
					continue
				}
				if have.Code == m.pair.Code {
					rs[i].Score *= annBoost
				} else {
					rs[i].Score *= annDemote
				}
				break
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
