package engine

import (
	"context"
	"errors"
	"reflect"
	"sync"
	"testing"
)

// A canceled context surfaces through Search as its error.
func TestSearchCanceledContext(t *testing.T) {
	e := corpusEngine(t, 4)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := e.Search(ctx, SearchRequest{Query: "used ford focus", K: 10}); !errors.Is(err, context.Canceled) {
		t.Fatalf("Search returned %v, want context.Canceled", err)
	}
}

// Concurrent searches (which share the index's pooled dense
// accumulators) must return exactly what a quiet sequential search
// returns, query after query. Run with -race; this is the engine-level
// guard on the accumulator rewrite.
func TestSearchStableUnderConcurrentQueries(t *testing.T) {
	e := corpusEngine(t, 4)
	queries := []string{
		"used ford focus", "homes in seattle", "nurse jobs",
		"history books", "thai recipes", "turing award professor",
		"ford ford focus", "the of and", "zzz-no-such-term",
	}
	want := make([]SearchResponse, len(queries))
	for i, q := range queries {
		want[i], _ = e.Search(context.Background(), SearchRequest{Query: q, K: 10})
		want[i].Elapsed = 0
	}
	if want[0].Total == 0 {
		t.Fatalf("the corpus answers nothing to %q", queries[0])
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				qi := (g + i) % len(queries)
				got, err := e.Search(context.Background(), SearchRequest{Query: queries[qi], K: 10})
				got.Elapsed = 0
				if err != nil || !reflect.DeepEqual(got, want[qi]) {
					t.Errorf("goroutine %d: Search(%q) diverged under concurrency (err %v)", g, queries[qi], err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}
