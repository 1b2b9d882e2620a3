// The race detector makes sync.Pool drop items at random, so the body
// buffer is sometimes allocated afresh: allocation counts are only
// meaningful without it.

//go:build !race

package api

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"testing"

	"deepweb/internal/engine"
	"deepweb/internal/index"
)

// discardWriter is a ResponseWriter that keeps no body, so the
// allocations measured are the handler's, not a recorder's buffer.
type discardWriter struct {
	h      http.Header
	status int
}

func (w *discardWriter) Header() http.Header         { return w.h }
func (w *discardWriter) WriteHeader(status int)      { w.status = status }
func (w *discardWriter) Write(b []byte) (int, error) { return len(b), nil }

// bytesPerRun is testing.AllocsPerRun for heap bytes.
func bytesPerRun(runs int, f func()) float64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	f()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range runs {
		f()
	}
	runtime.ReadMemStats(&after)
	return float64(after.TotalAlloc-before.TotalAlloc) / float64(runs)
}

// The /v1/search body is appended into a pooled buffer straight from
// the engine's page: fifty hits cost the handler the same allocations,
// and no more bytes above the engine's own, as one hit. A per-hit copy
// of the page or a per-request body buffer fails the byte check.
func TestSearchBodyAllocatesNothingPerHit(t *testing.T) {
	e := engine.New()
	for i := range 200 {
		e.Index.Add(index.Doc{
			URL:    fmt.Sprintf("http://cars.example/listing/%d", i),
			Title:  fmt.Sprintf("used ford focus %d", i),
			Text:   "a used ford focus for sale in seattle",
			Source: "cars-form",
		})
	}
	s := New(Options{Engine: func() *engine.Engine { return e }})
	cost := func(k int) (allocs, overEngine float64) {
		r := httptest.NewRequest("GET", fmt.Sprintf("/v1/search?q=ford&k=%d", k), nil)
		w := &discardWriter{h: http.Header{}}
		serve := func() {
			s.ServeHTTP(w, r)
			if w.status != http.StatusOK {
				t.Fatalf("k=%d: status %d", k, w.status)
			}
		}
		search := func() {
			if resp, err := e.Search(context.Background(), engine.SearchRequest{Query: "ford", K: k}); err != nil || len(resp.Results) != k {
				t.Fatalf("k=%d: %d hits, err %v", k, len(resp.Results), err)
			}
		}
		return testing.AllocsPerRun(100, serve), bytesPerRun(100, serve) - bytesPerRun(100, search)
	}
	allocs1, over1 := cost(1)
	allocs50, over50 := cost(50)
	if allocs1 != allocs50 {
		t.Errorf("/v1/search allocates %v times for k=1, %v for k=50: the body allocates per hit", allocs1, allocs50)
	}
	// 50 hits are ~5 KB of body and 3 KB of copied results; what is left
	// is parameter parsing, whose size does not depend on k.
	if over50-over1 > 512 {
		t.Errorf("/v1/search allocates %.0f B above the engine for k=1, %.0f B for k=50: the body allocates per hit", over1, over50)
	}
}
