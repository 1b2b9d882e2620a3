package engine

import (
	"context"
	"math"
	"reflect"
	"sync"
	"testing"

	"deepweb/internal/query"
)

// assertBitIdentical fails unless got and want agree on everything the
// caller can observe except Elapsed/Cached: results (to the score
// bit), Total and Generation.
func assertBitIdentical(t *testing.T, ctxMsg string, got, want SearchResponse) {
	t.Helper()
	if got.Total != want.Total || got.Generation != want.Generation {
		t.Fatalf("%s: total/generation (%d, %d), want (%d, %d)",
			ctxMsg, got.Total, got.Generation, want.Total, want.Generation)
	}
	if len(got.Results) != len(want.Results) {
		t.Fatalf("%s: %d results, want %d", ctxMsg, len(got.Results), len(want.Results))
	}
	for i := range want.Results {
		g, w := got.Results[i], want.Results[i]
		if g.DocID != w.DocID || g.URL != w.URL || g.Title != w.Title || g.Source != w.Source {
			t.Fatalf("%s: rank %d differs: %+v vs %+v", ctxMsg, i, g, w)
		}
		if math.Float64bits(g.Score) != math.Float64bits(w.Score) {
			t.Fatalf("%s: rank %d score bits differ: %v vs %v", ctxMsg, i, g.Score, w.Score)
		}
	}
}

// Generation keying across the snapshot boundary: saving adopts the
// snapshot's generation, which changes every cache key — and a loaded
// engine starts with a cold cache of its own.
func TestCacheKeyChangesWithGeneration(t *testing.T) {
	e := corpusEngine(t, 4)
	e.EnableResultCache(64)
	req := SearchRequest{Query: "used ford focus", K: 5}
	ctx := context.Background()

	if _, err := e.Search(ctx, req); err != nil {
		t.Fatal(err)
	}
	warm, err := e.Search(ctx, req)
	if err != nil || !warm.Cached {
		t.Fatalf("second search not served from cache (err=%v)", err)
	}
	key := e.searchCacheKey(req)
	if err := e.Save(t.TempDir(), nil); err != nil {
		t.Fatal(err)
	}
	if e.Generation == 0 {
		t.Fatal("Save left generation 0")
	}
	if after := e.searchCacheKey(req); after == key {
		t.Fatal("cache key unchanged across a generation change")
	}
	// The response under the new key is still bit-identical (the index
	// didn't change, only its identity did).
	cold, err := e.Search(ctx, req)
	if err != nil || cold.Cached {
		t.Fatalf("post-save search served a stale-generation entry (cached=%v err=%v)", cold.Cached, err)
	}
	assertBitIdentical(t, "post-save", cold, SearchResponse{
		Results: warm.Results, Total: warm.Total, Generation: e.Generation,
	})
}

// Annotated ranking is not a pure function of the stemmed query:
// annotation-vocabulary matching (annStore.valuesMentioned) runs over
// the raw tokenized query, so spellings that stem-collide must not
// share a cache entry when Annotated — and must share one when plain,
// because they are the same query to BM25.
func TestCacheKeySeparatesAnnotatedStemCollisions(t *testing.T) {
	e := corpusEngine(t, 1)
	a := SearchRequest{Query: "homes in seattle", K: 10}
	b := SearchRequest{Query: "home in seattles", K: 10}
	if e.searchCacheKey(a) != e.searchCacheKey(b) {
		t.Fatal("stem-colliding plain queries got distinct keys; they are the same query to BM25")
	}
	a.Annotated, b.Annotated = true, true
	if e.searchCacheKey(a) == e.searchCacheKey(b) {
		t.Fatal("stem-colliding annotated queries share a key; annotated ranking sees raw tokens")
	}
}

// Concurrent identical queries collapse into few scans, every caller
// gets the same bit-identical page, and -race stays quiet.
func TestConcurrentCachedSearches(t *testing.T) {
	e := corpusEngine(t, 4)
	e.EnableResultCache(64)
	ctx := context.Background()
	want, err := e.Search(ctx, SearchRequest{Query: "used ford focus", K: 10})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				got, err := e.Search(ctx, SearchRequest{Query: "used ford focus", K: 10})
				if err != nil {
					t.Errorf("concurrent search: %v", err)
					return
				}
				if !reflect.DeepEqual(got.Results, want.Results) {
					t.Error("concurrent cached search diverged from the uncontended answer")
					return
				}
			}
		}()
	}
	wg.Wait()
	st, ok := e.CacheStats()
	if !ok || st.Hits == 0 {
		t.Fatalf("no cache hits under concurrent identical load: %+v", st)
	}
	if st.Misses > 2 {
		t.Errorf("%d scans for one repeated query; singleflight not collapsing", st.Misses)
	}
}

// Filters are part of the cache key (mirror of
// TestCacheKeySeparatesAnnotatedStemCollisions): a filtered request
// must never share an entry with its unfiltered spelling or with a
// different filter, while order- and duplicate-variant spellings of
// the same filter must share one.
func TestCacheKeySeparatesFilters(t *testing.T) {
	e := corpusEngine(t, 1)
	plain := SearchRequest{Query: "used ford focus", K: 10}
	ford := SearchRequest{Query: "used ford focus", K: 10,
		Filters: []query.Predicate{query.Eq("make", "ford")}}
	honda := SearchRequest{Query: "used ford focus", K: 10,
		Filters: []query.Predicate{query.Eq("make", "honda")}}
	if e.searchCacheKey(plain) == e.searchCacheKey(ford) {
		t.Fatal("filtered and unfiltered queries share a cache key")
	}
	if e.searchCacheKey(ford) == e.searchCacheKey(honda) {
		t.Fatal("distinct filters share a cache key")
	}

	cheap := mustPred(t, "price<10000")
	ab := SearchRequest{Query: "used ford focus", K: 10,
		Filters: []query.Predicate{query.Eq("make", "ford"), cheap}}
	ba := SearchRequest{Query: "used ford focus", K: 10,
		Filters: []query.Predicate{cheap, query.Eq("make", "ford")}}
	dup := SearchRequest{Query: "used ford focus", K: 10,
		Filters: []query.Predicate{cheap, query.Eq("make", "ford"), cheap}}
	if e.searchCacheKey(ab) != e.searchCacheKey(ba) {
		t.Fatal("permuted filter lists got distinct keys; they are the same filter")
	}
	if e.searchCacheKey(ab) != e.searchCacheKey(dup) {
		t.Fatal("duplicated predicates changed the key; canonicalization must dedupe")
	}

	// An in-query DSL spelling and an explicit Filters spelling of the
	// same request are the same query end to end.
	rest, preds := query.Extract("used ford focus price<10000 make:ford")
	viaDSL := SearchRequest{Query: rest, K: 10, Filters: preds}
	if e.searchCacheKey(viaDSL) != e.searchCacheKey(ab) {
		t.Fatal("in-query DSL and explicit filters key differently")
	}
}
