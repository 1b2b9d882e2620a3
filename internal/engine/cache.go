package engine

import (
	"strconv"
	"strings"

	"deepweb/internal/index"
	"deepweb/internal/query"
	"deepweb/internal/rescache"
	"deepweb/internal/textutil"
)

// Result caching: the serving tier's answer to repeated-query traffic.
// Web query load is heavily skewed (the §3.2 long-tail curve: a small
// head of queries carries half the traffic), so the same searches
// arrive over and over while the index between refreshes is immutable.
// An enabled engine routes Search through a bounded rescache keyed by
//
//	(Generation, index version, normalized query, k, offset, host,
//	 annotated, canonical filters)
//
// — every input that can change the answer. Correctness falls out of
// the key, not of invalidation traffic:
//
//   - A snapshot reload swaps in a new *Engine (deepsearch's atomic
//     pointer), and the cache lives on the engine, so engine and cache
//     swap together by construction; the new engine's Generation also
//     differs, so even a shared external cache could never cross the
//     boundary.
//   - Every in-place index write — an ingest batch, a Delete, an
//     Annotate, a Compact, by an engine pass or straight through the
//     exported Index — increments the index's version under its write
//     lock (index.Version), so every key minted before it becomes
//     unreachable and ages out of the LRU. A query racing a write
//     reads the version before it scans, so it caches a state no
//     older than its key names, and no page cached before a write
//     completes can answer a query made after it.
//
// The query is normalized through the index's own term pipeline
// (tokenize, stopword, stem), so "Used FORD!!" and "used ford" share
// an entry — they are the same query to BM25. Annotated requests
// additionally fold in the raw tokenized query: annotation-vocabulary
// matching (annStore.valuesMentioned) runs over unstemmed tokens, so
// stem-colliding queries like "honda civic" and "honda civics" are the
// same query to BM25 but not to annotated ranking, and must not share
// an entry.
//
// Responses are deep-copied on every cache boundary crossing (see
// rescache), so callers can never alias the cached Results slice.
// Memory bound: Capacity entries × (one key string + k Results of a
// few short strings each) — a 4096-entry cache of k=10 pages is a few
// MB.

// EnableResultCache routes this engine's Search through a bounded
// result cache of the given capacity (entries). capacity <= 0 disables
// caching. Enable before serving traffic; the switch itself is not
// synchronized with in-flight searches.
func (e *Engine) EnableResultCache(capacity int) {
	if capacity <= 0 {
		e.cache = nil
		return
	}
	e.cache = rescache.New(capacity, 0, cloneSearchResponse)
}

// CacheStats reports the result cache's counters; ok is false when no
// cache is enabled.
func (e *Engine) CacheStats() (st rescache.Stats, ok bool) {
	if e.cache == nil {
		return rescache.Stats{}, false
	}
	return e.cache.Stats(), true
}

// cloneSearchResponse deep-copies a response so no two cache callers
// share the Results slice (index.Result holds only value types and
// immutable strings, so copying the elements is a deep copy).
func cloneSearchResponse(r SearchResponse) SearchResponse {
	out := r
	if r.Results != nil {
		out.Results = append([]index.Result(nil), r.Results...)
	}
	return out
}

// searchCacheKey folds every answer-changing input into one opaque
// string: serving identity (generation + index version), pagination
// and filter options, and the normalized query terms.
func (e *Engine) searchCacheKey(req SearchRequest) string {
	var b strings.Builder
	b.Grow(48 + len(req.Query) + len(req.Host))
	b.WriteString(strconv.FormatUint(uint64(e.Generation), 10))
	b.WriteByte('\x00')
	b.WriteString(strconv.FormatUint(e.Index.Version(), 10))
	b.WriteByte('\x00')
	b.WriteString(strconv.Itoa(req.K))
	b.WriteByte('\x00')
	b.WriteString(strconv.Itoa(req.Offset))
	b.WriteByte('\x00')
	if req.Annotated {
		b.WriteByte('a')
	}
	b.WriteByte('\x00')
	b.WriteString(req.Host)
	b.WriteByte('\x00')
	// Structured filters change the answer, so they are part of the
	// key — in canonical (sorted, deduplicated) serialization, so
	// permuted or repeated predicate lists share the entry they ought
	// to, and filtered queries can never alias unfiltered ones.
	b.WriteString(query.Key(req.Filters))
	b.WriteByte('\x00')
	for i, term := range textutil.StemmedTokens(req.Query) {
		if i > 0 {
			b.WriteByte(' ')
		}
		b.WriteString(term)
	}
	if req.Annotated {
		// Annotated ranking matches annotation vocabulary against the
		// raw tokenized query, which is not a function of the stemmed
		// terms — fold the raw tokens in so stem-colliding queries
		// can't alias each other's entries.
		b.WriteByte('\x00')
		for i, term := range textutil.Tokenize(req.Query) {
			if i > 0 {
				b.WriteByte(' ')
			}
			b.WriteString(term)
		}
	}
	return b.String()
}
