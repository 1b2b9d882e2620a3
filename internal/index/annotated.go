package index

import (
	"context"
	"sort"
	"strings"
	"sync"

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

// annStore carries annotations parallel to docs.
type annStore struct {
	mu    sync.RWMutex
	anns  map[int]map[string]string // docID -> attr -> value
	vocab map[string]map[string]int // attr -> value -> support
}

func (ix *Index) annotations() *annStore {
	ix.annOnce.Do(func() {
		ix.ann = &annStore{
			anns:  map[int]map[string]string{},
			vocab: map[string]map[string]int{},
		}
	})
	return ix.ann
}

// Annotate attaches attribute=value annotations to an indexed document
// (typically the form binding that surfaced it). Values are stored
// lower-cased; empty values are ignored.
func (ix *Index) Annotate(docID int, anns map[string]string) {
	st := ix.annotations()
	st.mu.Lock()
	defer st.mu.Unlock()
	m := st.anns[docID]
	if m == nil {
		m = map[string]string{}
		st.anns[docID] = m
	}
	for attr, v := range anns {
		attr = strings.ToLower(strings.TrimSpace(attr))
		v = strings.ToLower(strings.TrimSpace(v))
		if attr == "" || v == "" {
			continue
		}
		m[attr] = v
		vv := st.vocab[attr]
		if vv == nil {
			vv = map[string]int{}
			st.vocab[attr] = vv
		}
		vv[v]++
	}
}

// deleteDoc drops a deleted document's annotations and releases its
// vocabulary support, so a value that survives only on dead documents
// stops steering AnnotatedTopK.
func (st *annStore) deleteDoc(docID int) {
	st.mu.Lock()
	defer st.mu.Unlock()
	for attr, v := range st.anns[docID] {
		if vv := st.vocab[attr]; vv != nil {
			if vv[v]--; vv[v] <= 0 {
				delete(vv, v)
			}
			if len(vv) == 0 {
				delete(st.vocab, attr)
			}
		}
	}
	delete(st.anns, docID)
}

// remap renumbers annotations through newID (-1 drops a document);
// Compact calls it after renumbering the document table.
func (st *annStore) remap(newID []int32) {
	st.mu.Lock()
	defer st.mu.Unlock()
	anns := make(map[int]map[string]string, len(st.anns))
	for id, m := range st.anns {
		if id >= 0 && id < len(newID) && newID[id] >= 0 {
			anns[int(newID[id])] = m
		}
	}
	st.anns = anns
}

// AnnotationsOf returns a document's annotations (nil if none).
func (ix *Index) AnnotationsOf(docID int) map[string]string {
	st := ix.annotations()
	st.mu.RLock()
	defer st.mu.RUnlock()
	src := st.anns[docID]
	if src == nil {
		return nil
	}
	out := make(map[string]string, len(src))
	for k, v := range src {
		out[k] = v
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
// re-ranked prefix.
func (ix *Index) AnnotatedTopK(ctx context.Context, query string, k, offset int, keep func(id int, d Doc) bool) ([]Result, int, error) {
	if k <= 0 {
		return nil, 0, ctx.Err()
	}
	if offset < 0 {
		offset = 0
	}
	st := ix.annotations()
	queryValues := st.valuesMentioned(query)
	if len(queryValues) == 0 {
		// No annotation vocabulary intersects the query: degrade to the
		// plain BM25 page, with no over-fetch at all.
		return ix.TopK(ctx, query, k, offset, keep)
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
	base, total, err := ix.TopK(ctx, query, fetch, 0, keep)
	if err != nil || len(base) == 0 {
		return base, total, err
	}
	head := base
	if len(head) > rerankDepth {
		head = head[:rerankDepth]
	}
	st.adjust(head, queryValues)
	sortResults(head)
	return pageOf(base, k, offset), total, nil
}

// valuesMentioned returns, per annotation attribute, the longest
// attribute value the query mentions (multi-word values like "santa
// fe" beat their substrings); empty when the query touches no
// annotation vocabulary.
func (st *annStore) valuesMentioned(query string) map[string]string {
	st.mu.RLock()
	defer st.mu.RUnlock()
	q := " " + strings.Join(textutil.Tokenize(query), " ") + " "
	queryValues := map[string]string{}
	for attr, values := range st.vocab {
		for v := range values {
			if strings.Contains(q, " "+v+" ") {
				if len(v) > len(queryValues[attr]) {
					queryValues[attr] = v
				}
			}
		}
	}
	return queryValues
}

// adjust applies the §5.1 boost/demote factors to a ranked page in
// place. Factors multiply in sorted-attribute order: float products do
// not commute in the last bit, so map order here would make a query
// mentioning two attributes score — and break near-ties — differently
// from run to run.
func (st *annStore) adjust(rs []Result, queryValues map[string]string) {
	attrs := make([]string, 0, len(queryValues))
	for attr := range queryValues {
		attrs = append(attrs, attr)
	}
	sort.Strings(attrs)
	st.mu.RLock()
	defer st.mu.RUnlock()
	for i := range rs {
		anns := st.anns[rs[i].DocID]
		if anns == nil {
			continue
		}
		for _, attr := range attrs {
			have, ok := anns[attr]
			if !ok {
				continue
			}
			if have == queryValues[attr] {
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
