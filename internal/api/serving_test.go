package api

import (
	"encoding/json"
	"fmt"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"

	"deepweb/internal/engine"
	"deepweb/internal/index"
)

// The serving-tier observability contract: X-Cache on every search
// response, and atomic monotonic counters on /v1/admin/stats.

func cachedTestServer(capacity int) (*Server, *engine.Engine) {
	e := testEngine()
	e.EnableResultCache(capacity)
	return New(Options{Engine: func() *engine.Engine { return e }}), e
}

// X-Cache reports each response's provenance: MISS on the first scan,
// HIT once the entry is resident; an engine without a cache is all
// MISS.
func TestXCacheHeader(t *testing.T) {
	s, _ := cachedTestServer(16)
	if got := do(s, "GET", "/v1/search?q=ford&k=5").Header().Get("X-Cache"); got != "MISS" {
		t.Fatalf("first search X-Cache = %q, want MISS", got)
	}
	if got := do(s, "GET", "/v1/search?q=ford&k=5").Header().Get("X-Cache"); got != "HIT" {
		t.Fatalf("second search X-Cache = %q, want HIT", got)
	}
	// Normalization: a differently-spelled same query also hits.
	if got := do(s, "GET", "/v1/search?q=FORD!&k=5").Header().Get("X-Cache"); got != "HIT" {
		t.Fatalf("normalized alias X-Cache = %q, want HIT", got)
	}

	uncached := New(Options{Engine: func() *engine.Engine { e := testEngine(); return e }})
	for i := 0; i < 2; i++ {
		if got := do(uncached, "GET", "/v1/search?q=ford").Header().Get("X-Cache"); got != "MISS" {
			t.Fatalf("uncached engine X-Cache = %q, want MISS", got)
		}
	}

	// The contract is every /v1/search response, error envelopes
	// included: a rejected request and an unavailable engine are MISS.
	if rec := do(s, "GET", "/v1/search"); rec.Code != 400 || rec.Header().Get("X-Cache") != "MISS" {
		t.Fatalf("malformed request: status %d, X-Cache %q; want 400 MISS", rec.Code, rec.Header().Get("X-Cache"))
	}
	noEngine := New(Options{Engine: func() *engine.Engine { return nil }})
	if rec := do(noEngine, "GET", "/v1/search?q=ford"); rec.Code != 503 || rec.Header().Get("X-Cache") != "MISS" {
		t.Fatalf("engine unavailable: status %d, X-Cache %q; want 503 MISS", rec.Code, rec.Header().Get("X-Cache"))
	}
}

// The /v1/admin/stats JSON contract for a caching deployment: every
// counter field is present under its stable name, and the numbers are
// consistent with the traffic just served.
func TestStatsJSONContract(t *testing.T) {
	s, _ := cachedTestServer(16)
	const repeats = 4
	for i := 0; i < repeats; i++ {
		if rec := do(s, "GET", "/v1/search?q=ford+focus&k=3"); rec.Code != 200 {
			t.Fatalf("search %d: status %d", i, rec.Code)
		}
	}
	do(s, "GET", "/v1/search") // 400: still counted — it cost the front end

	rec := do(s, "GET", "/v1/admin/stats")
	if rec.Code != 200 {
		t.Fatalf("stats: status %d", rec.Code)
	}
	var m map[string]any
	if err := json.Unmarshal(rec.Body.Bytes(), &m); err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"docs", "generation", "queries", "inflight_queries", "cache"} {
		if _, ok := m[key]; !ok {
			t.Errorf("stats payload missing %q: %s", key, rec.Body.String())
		}
	}
	if got := m["queries"].(float64); got != repeats+1 {
		t.Errorf("queries = %v, want %d", got, repeats+1)
	}
	if got := m["inflight_queries"].(float64); got != 0 {
		t.Errorf("inflight_queries = %v at rest, want 0", got)
	}
	cache, ok := m["cache"].(map[string]any)
	if !ok {
		t.Fatalf("cache block missing or malformed: %s", rec.Body.String())
	}
	for _, key := range []string{"hits", "misses", "collapsed", "evictions", "entries", "capacity", "hit_ratio"} {
		if _, ok := cache[key]; !ok {
			t.Errorf("cache block missing %q: %v", key, cache)
		}
	}
	if hits := cache["hits"].(float64); hits != repeats-1 {
		t.Errorf("cache hits = %v, want %d", hits, repeats-1)
	}
	if ratio := cache["hit_ratio"].(float64); ratio <= 0 || ratio >= 1 {
		t.Errorf("hit_ratio = %v, want in (0, 1)", ratio)
	}

	// A cache-less deployment omits the block entirely.
	plain := testServer(t, Options{})
	var st Stats
	if err := json.Unmarshal(do(plain, "GET", "/v1/admin/stats").Body.Bytes(), &st); err != nil {
		t.Fatal(err)
	}
	if st.Cache != nil {
		t.Errorf("cache block present without a cache: %+v", st.Cache)
	}
}

// Counters under concurrent load: queries is monotonic across polls,
// inflight settles to zero, and the cache counters account for every
// successful search exactly once. Run with -race: every counter is
// atomic, so this also proves the no-torn-reads claim.
func TestStatsCountersAtomicUnderLoad(t *testing.T) {
	s, e := cachedTestServer(64)
	const workers, perWorker = 8, 150
	var loadWg, pollWg sync.WaitGroup
	for g := 0; g < workers; g++ {
		loadWg.Add(1)
		go func() {
			defer loadWg.Done()
			for i := 0; i < perWorker; i++ {
				q := fmt.Sprintf("ford+q%d", i%7)
				if rec := do(s, "GET", "/v1/search?q="+q+"&k=5"); rec.Code != 200 {
					t.Errorf("search: status %d", rec.Code)
					return
				}
			}
		}()
	}
	// A poller asserting monotonicity while the load runs.
	pollDone := make(chan struct{})
	pollWg.Add(1)
	go func() {
		defer pollWg.Done()
		var last uint64
		for {
			select {
			case <-pollDone:
				return
			default:
			}
			var st Stats
			if err := json.Unmarshal(do(s, "GET", "/v1/admin/stats").Body.Bytes(), &st); err != nil {
				t.Errorf("stats mid-load: %v", err)
				return
			}
			if st.Queries < last {
				t.Errorf("queries went backwards: %d after %d", st.Queries, last)
				return
			}
			last = st.Queries
			if st.InflightQueries < 0 {
				t.Errorf("inflight_queries negative: %d", st.InflightQueries)
				return
			}
			runtime.Gosched()
		}
	}()
	loadWg.Wait()
	close(pollDone)
	pollWg.Wait()

	var st Stats
	if err := json.Unmarshal(do(s, "GET", "/v1/admin/stats").Body.Bytes(), &st); err != nil {
		t.Fatal(err)
	}
	if st.Queries != workers*perWorker {
		t.Errorf("queries = %d, want %d", st.Queries, workers*perWorker)
	}
	if st.InflightQueries != 0 {
		t.Errorf("inflight_queries = %d at rest, want 0", st.InflightQueries)
	}
	cs, ok := e.CacheStats()
	if !ok {
		t.Fatal("cache stats unavailable")
	}
	if total := cs.Hits + cs.Misses + cs.Collapsed; total != workers*perWorker {
		t.Errorf("cache accounted %d lookups, want %d (hits=%d misses=%d collapsed=%d)",
			total, workers*perWorker, cs.Hits, cs.Misses, cs.Collapsed)
	}
}

// The reload hammer: many goroutines query while the serving engine is
// swapped back and forth (the SIGHUP //v1/admin/reload path: an atomic
// engine pointer, each engine carrying its own result cache). Every
// response must be internally consistent — X-Generation header equal
// to the body's generation, and the generation always one of the two
// engines' — and once the final swap settles, no stale-generation
// response may ever appear again. Run with -race.
func TestReloadRaceServesConsistentGeneration(t *testing.T) {
	// Two engines with distinct, non-zero, content-derived generations.
	e1 := testEngine()
	b := testIndex()
	b.Add(index.Doc{URL: "http://cars.example/d/9", Title: "new arrival ford", Text: "a fresh ford focus listing"})
	e2 := &engine.Engine{Index: b.Freeze()}
	e1.EnableResultCache(64)
	e2.EnableResultCache(64)
	if err := e1.Save(t.TempDir(), nil); err != nil {
		t.Fatal(err)
	}
	if err := e2.Save(t.TempDir(), nil); err != nil {
		t.Fatal(err)
	}
	g1, g2 := e1.Generation, e2.Generation
	if g1 == 0 || g2 == 0 || g1 == g2 {
		t.Fatalf("generations not distinct and non-zero: %d, %d", g1, g2)
	}

	var current atomic.Pointer[engine.Engine]
	current.Store(e1)
	s := New(Options{Engine: func() *engine.Engine { return current.Load() }})

	stop := make(chan struct{})
	var hammerWg, swapWg sync.WaitGroup
	swapWg.Add(1)
	go func() { // the reloader, swapping as fast as it can
		defer swapWg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			if i%2 == 0 {
				current.Store(e2)
			} else {
				current.Store(e1)
			}
			runtime.Gosched()
		}
	}()
	checkResponse := func(tag string) uint32 {
		rec := do(s, "GET", "/v1/search?q=ford&k=5")
		if rec.Code != 200 {
			t.Errorf("%s: status %d", tag, rec.Code)
			return 0
		}
		var body struct {
			Generation uint32 `json:"generation"`
		}
		if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil {
			t.Errorf("%s: %v", tag, err)
			return 0
		}
		if hdr := rec.Header().Get("X-Generation"); hdr != strconv.FormatUint(uint64(body.Generation), 10) {
			t.Errorf("%s: X-Generation %s disagrees with body generation %d — torn engine view", tag, hdr, body.Generation)
		}
		if body.Generation != g1 && body.Generation != g2 {
			t.Errorf("%s: generation %d is neither serving engine's (%d, %d)", tag, body.Generation, g1, g2)
		}
		if xc := rec.Header().Get("X-Cache"); xc != "HIT" && xc != "MISS" {
			t.Errorf("%s: X-Cache %q", tag, xc)
		}
		return body.Generation
	}
	for gr := 0; gr < 8; gr++ {
		hammerWg.Add(1)
		go func() {
			defer hammerWg.Done()
			for i := 0; i < 200; i++ {
				checkResponse("mid-swap")
			}
		}()
	}
	// Let the hammer run against live swapping, then stop the reloader
	// and pin the final engine: from here on, serving the old
	// generation would mean a cache entry crossed the swap.
	hammerWg.Wait()
	close(stop)
	swapWg.Wait()
	current.Store(e2)
	for i := 0; i < 100; i++ {
		if gen := checkResponse("post-swap"); gen != 0 && gen != g2 {
			t.Fatalf("request %d after the swap completed served stale generation %d, want %d", i, gen, g2)
		}
	}
}
