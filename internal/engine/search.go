package engine

import (
	"context"
	"fmt"
	"time"

	"deepweb/internal/index"
	"deepweb/internal/query"
)

// Serving-side API: one request/response pair every consumer of ranked
// retrieval — binaries, the /v1 HTTP layer, experiments — goes
// through, instead of each caller hand-rolling positional Index calls
// and its own JSON dialect. Ranking is exactly the index's: for the
// zero options (Offset 0, no Host, Annotated false) the result slice
// is bit-identical to index.TopK — same ids, same float score bits,
// same tie order.

// SearchRequest is one ranked retrieval over the engine's index.
type SearchRequest struct {
	// Query is the free-text query.
	Query string
	// K is the page size. K <= 0 returns an empty response, matching
	// index.TopK; HTTP layers apply their own defaults first.
	K int
	// Offset skips that many ranked hits before the page starts.
	Offset int
	// Annotated ranks with the §5.1 surfacing-time annotations
	// (index.AnnotatedTopK semantics) instead of plain BM25.
	Annotated bool
	// Host restricts hits to documents on one host ("" = all): those
	// whose url.Parse(URL).Host equals it exactly, port included,
	// userinfo not. The total reflects the restriction.
	Host string
	// Filters are structured predicates (internal/query) every hit
	// must satisfy: admission runs after BM25 scoring and before
	// selection, so kept documents score bit-identically to an
	// unfiltered search and Total counts exactly the matching
	// documents. Predicates resolve against the document's §5.1
	// annotations first, then typed tokens from its text. They are
	// bound once per request to the index's annotation tables and
	// judged once per schema from its columns' ranges: a schema whose
	// every document they admit, or none, costs its candidates one
	// lookup each, and only the others are judged one by one. Order and
	// duplicates are irrelevant (the cache keys their canonical form).
	Filters []query.Predicate
}

// SearchResponse carries the page plus the serving metadata every
// caller was previously recomputing for itself.
type SearchResponse struct {
	// Results is the ranked page [Offset, Offset+K).
	Results []index.Result
	// Total is how many documents matched the query (after the
	// Host restriction), independent of pagination.
	Total int
	// Elapsed is the retrieval wall-clock.
	Elapsed time.Duration
	// Generation is the engine's snapshot generation id (0 = built
	// live, never snapshot).
	Generation uint32
	// Cached reports that this response was served from the result
	// cache (or collapsed onto another request's in-flight scan)
	// instead of a fresh index scan. Results/Total/Generation are
	// bit-identical either way; Elapsed is the cache path's own
	// wall-clock.
	Cached bool
}

// Search answers req against the engine's index. The context cancels
// scoring between query terms and, for a filtered or host-restricted
// request, every few thousand candidates of the admission loop; a
// canceled search returns ctx.Err().
//
// With a result cache enabled (EnableResultCache) the repeated-query
// hot path is O(copy): identical requests against an unchanged index
// are answered from the cache, and concurrent identical misses
// collapse into one scan. Responses are bit-identical to the uncached
// path — same ids, same float score bits, same tie order, same Total —
// and every caller gets a private copy of the Results slice.
func (e *Engine) Search(ctx context.Context, req SearchRequest) (SearchResponse, error) {
	if e.cache == nil {
		return e.searchUncached(ctx, req)
	}
	start := time.Now()
	resp, cached, err := e.cache.Do(ctx, e.searchCacheKey(req), func() (SearchResponse, error) {
		return e.searchUncached(ctx, req)
	})
	if err != nil {
		return SearchResponse{}, err
	}
	if cached {
		resp.Cached = true
		resp.Elapsed = time.Since(start)
	}
	return resp, nil
}

// searchUncached is the always-scan path behind Search.
func (e *Engine) searchUncached(ctx context.Context, req SearchRequest) (SearchResponse, error) {
	start := time.Now()
	// The predicate-free, host-free path passes no filter: topK's
	// branch-free selection loop is the benchmarked hot path and must
	// not grow a check per hit. A host restriction alone reads only the
	// index's host column; only predicates bind to the annotation store.
	f := query.NewMatcher(req.Filters).Filter(e.Index, req.Host)
	var (
		hits  []index.Result
		total int
		err   error
	)
	if req.Annotated {
		hits, total, err = e.Index.AnnotatedTopK(ctx, req.Query, req.K, req.Offset, f)
	} else {
		hits, total, err = e.Index.TopK(ctx, req.Query, req.K, req.Offset, f)
	}
	if err != nil {
		return SearchResponse{}, fmt.Errorf("engine: search: %w", err)
	}
	return SearchResponse{
		Results:    hits,
		Total:      total,
		Elapsed:    time.Since(start),
		Generation: e.Generation,
	}, nil
}
