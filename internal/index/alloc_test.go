// The race detector makes sync.Pool drop items at random and adds
// allocations of its own: allocation counts are only meaningful
// without it.

//go:build !race

package index

import (
	"fmt"
	"runtime"
	"testing"
)

// A commit annotates every document once, and most carry values their
// dictionaries already hold, so placing a new document into a schema
// that already exists, with such values, must not allocate per call:
// only the tables' amortized growth may.
func TestAnnotateAllocatesNothingPerDocument(t *testing.T) {
	const n = 20000
	ix := New()
	for i := 0; i < n+2; i++ {
		ix.Add(Doc{URL: fmt.Sprintf("http://cars.example/%d", i), Text: "used ford focus"})
	}
	anns := []map[string]string{
		{"make": "ford", "year": "2001", "city": "seattle"},
		{"make": "honda", "year": "1999", "city": "portland"},
	}
	for id, a := range anns {
		ix.Annotate(id, a) // the schema and every value, interned
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for id := 2; id < n+2; id++ {
		ix.Annotate(id, anns[id%2])
	}
	runtime.ReadMemStats(&after)
	if per := float64(after.Mallocs-before.Mallocs) / n; per >= 0.01 {
		t.Fatalf("Annotate allocates %.4f times per document (%d over %d), want < 0.01", per, after.Mallocs-before.Mallocs, n)
	}
}
