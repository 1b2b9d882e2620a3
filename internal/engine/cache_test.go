package engine

import (
	"context"
	"math"
	"reflect"
	"sync"
	"testing"

	"deepweb/internal/core"
	"deepweb/internal/query"
	"deepweb/internal/webgen"
)

// cacheRequests is the request matrix the cache property tests sweep:
// pagination, host filtering, annotated ranking, query normalization
// aliases, and no-hit queries.
var cacheRequests = []SearchRequest{
	{Query: "used ford focus", K: 10},
	{Query: "  Used   FORD focus!! ", K: 10}, // normalizes to the one above
	{Query: "used ford focus", K: 3, Offset: 2},
	{Query: "seattle", K: 100},
	{Query: "seattle", K: 5, Host: "realestate-00.example"},
	{Query: "homes in seattle", K: 10, Annotated: true},
	// Stem-collides with the query above ("homes"/"home",
	// "seattle"/"seattles" conflate under Stem) but tokenizes
	// differently, so annotated vocabulary matching may disagree — the
	// two must not share a cache entry.
	{Query: "home in seattles", K: 10, Annotated: true},
	{Query: "zzz-no-such-term", K: 10},
	{Query: "the of and", K: 10}, // all stopwords: empty normalized query
}

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

// The cache acceptance bar: cached responses are bit-identical to
// uncached ones — across shard counts, on hits and misses, through a
// churn+Refresh (the epoch/generation keying must retire stale
// entries), and with no aliasing between callers. A reference engine
// built and mutated identically (everything here is deterministic)
// provides the uncached truth at every step.
func TestCachedSearchBitIdenticalToUncached(t *testing.T) {
	for _, shards := range []int{1, 4, 16} {
		ref := surfacedEngine(t, shards)
		cached := surfacedEngine(t, shards)
		cached.EnableResultCache(256)

		check := func(phase string) {
			t.Helper()
			// Keys already resident this phase: normalization aliases
			// ("Used FORD!!") hit entries their canonical form filled.
			seen := map[string]bool{}
			for _, req := range cacheRequests {
				want, err := ref.Search(context.Background(), req)
				if err != nil {
					t.Fatalf("shards=%d %s: ref %q: %v", shards, phase, req.Query, err)
				}
				key := cached.searchCacheKey(req)
				// Twice: a miss (fills) then a hit (serves the copy) —
				// and a mutation phase boundary must have made every
				// first pass a genuine miss again.
				for pass, wantCached := range []bool{seen[key], true} {
					got, err := cached.Search(context.Background(), req)
					if err != nil {
						t.Fatalf("shards=%d %s: cached %q pass %d: %v", shards, phase, req.Query, pass, err)
					}
					if got.Cached != wantCached {
						t.Fatalf("shards=%d %s: %q pass %d: Cached=%v, want %v",
							shards, phase, req.Query, pass, got.Cached, wantCached)
					}
					assertBitIdentical(t, phase+" "+req.Query, got, want)
					// Mutating the returned page must never leak into the
					// cache (deep-copy contract).
					for i := range got.Results {
						got.Results[i].Score = -1
						got.Results[i].URL = "poisoned"
					}
				}
				seen[key] = true
			}
		}

		check("cold")

		// Churn both worlds identically and refresh both engines: the
		// cached engine's epoch keying must retire every stale entry.
		webgen.Churn(ref.Web, 8, 99)
		webgen.Churn(cached.Web, 8, 99)
		for name, e := range map[string]*Engine{"ref": ref, "cached": cached} {
			st, err := e.Refresh(context.Background(), RefreshRequest{Config: core.DefaultConfig(), FollowNext: 3})
			if err != nil {
				t.Fatalf("shards=%d: refresh %s: %v", shards, name, err)
			}
			if st.SitesChanged == 0 {
				t.Fatalf("shards=%d: churn changed no sites; refresh invalidation unexercised", shards)
			}
		}
		check("post-refresh")

		// Compact must likewise retire cached pages (ids renumber).
		ref.Compact()
		cached.Compact()
		check("post-compact")

		if st, ok := cached.CacheStats(); !ok || st.Hits == 0 || st.Misses == 0 {
			t.Fatalf("shards=%d: cache never exercised: %+v (ok=%v)", shards, st, ok)
		}
	}
}

// Generation keying across the snapshot boundary: saving adopts the
// snapshot's generation, which changes every cache key — and a loaded
// engine starts with a cold cache of its own.
func TestCacheKeyChangesWithGeneration(t *testing.T) {
	e := surfacedEngine(t, 4)
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
	if err := e.Save(t.TempDir()); err != nil {
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
	e := surfacedEngine(t, 1)
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
	e := surfacedEngine(t, 4)
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
	e := surfacedEngine(t, 1)
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
