// The race detector makes sync.Pool drop items at random, so the
// search scratch is sometimes allocated afresh: allocation counts are
// only meaningful without it.

//go:build !race

package engine

import (
	"context"
	"fmt"
	"maps"
	"os"
	"runtime"
	"testing"

	"deepweb/internal/index"
	"deepweb/internal/query"
	"deepweb/internal/store"
)

// The filter reads each candidate's host id and annotations in place,
// under the scan's lock: a filtered or host-restricted Search allocates
// per query, never per candidate, so four times the matching documents
// cost the same number of allocations — whether the corpus has one
// attribute set or interleaves three, each binding once per query.
func TestFilteredSearchAllocatesNothingPerCandidate(t *testing.T) {
	preds := []query.Predicate{query.Eq("make", "ford"), mustPred(t, "price<20000")}
	for _, schemas := range [][]map[string]string{
		{{"make": "ford"}},
		{{"make": "ford"}, {"make": "ford", "city": "seattle"}, {"make": "ford", "year": "2004", "minprice": "3800"}},
	} {
		for _, req := range []SearchRequest{
			{Query: "ford focus", K: 10, Host: "cars.example", Filters: preds},
			{Query: "ford focus", K: 10, Host: "cars.example"},
			{Query: "ford focus", K: 10, Filters: preds},
		} {
			allocs := func(n int) float64 {
				b := index.New()
				for i := 0; i < n; i++ {
					id, _ := b.Add(index.Doc{
						URL:   fmt.Sprintf("http://cars.example/%d", i),
						Title: "used ford focus",
						Text:  fmt.Sprintf("listing %d", i),
					})
					anns := maps.Clone(schemas[i%len(schemas)])
					anns["price"] = fmt.Sprint(5000 + i%9*1000)
					b.Annotate(id, anns)
				}
				e := serve(b)
				return testing.AllocsPerRun(50, func() {
					if resp, err := e.Search(context.Background(), req); err != nil || resp.Total != n {
						t.Fatalf("host %q, %d filters, n=%d: Search total %d, err %v", req.Host, len(req.Filters), n, resp.Total, err)
					}
				})
			}
			if small, large := allocs(1000), allocs(4000); small != large {
				t.Fatalf("host %q, %d filters: Search allocates %v times over 1000 matches, %v over 4000: the filter allocates per candidate",
					req.Host, len(req.Filters), small, large)
			}
		}
	}
}

// Load allocates per term and per table, not per document: rows are
// substrings of one copy of the docs body and the URL lookup waits for
// the first write, so a 20k-document snapshot loads in fewer
// allocations than it has documents.
func TestLoadAllocatesPerTermNotPerDocument(t *testing.T) {
	const docs = 20000
	dir := bulkSnapshot(t, docs)
	allocs := testing.AllocsPerRun(3, func() {
		if _, err := Load(dir); err != nil {
			t.Fatal(err)
		}
	})
	if allocs >= docs {
		t.Fatalf("Load of %d documents made %.0f allocations", docs, allocs)
	}
	t.Logf("Load of %d documents: %.0f allocations", docs, allocs)
}

// Load reads each segment body once, into the memory that keeps it:
// what it allocates beyond what it retains — the transient bodies of
// the columns and postings segments, read windows, scratch — stays
// below the size of the docs body, so the docs body is never read
// into one buffer and copied into another.
func TestLoadReadsEachBodyOnce(t *testing.T) {
	dir := bulkSnapshot(t, 20000)
	fi, err := os.Stat(store.DocsPath(dir))
	if err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	e, err := Load(dir)
	if err != nil {
		t.Fatal(err)
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(e)
	allocated, retained := after.TotalAlloc-before.TotalAlloc, after.HeapAlloc-before.HeapAlloc
	if transient, docsBody := allocated-retained, uint64(fi.Size()); transient >= docsBody {
		t.Fatalf("Load allocated %d bytes and retained %d: %d transient, not below the %d-byte docs segment", allocated, retained, transient, docsBody)
	}
	t.Logf("Load allocated %d bytes, retained %d; docs segment %d bytes", allocated, retained, fi.Size())
}

// A loaded index keeps no header per document or per dictionary value:
// rows are 8-byte references into the docs body, and a dictionary is
// one text with an end offset per value, a numeric column only where a
// value is a number, and a flat table that finds its codes. A posting
// is 5 bytes, in one doc-id and one tf array per segment. So what a
// 20k-document Load retains beyond the docs body — postings,
// annotation tables, the per-document columns — stays within
// maxLoadedBytesPerDoc per document: about 275 bytes here, where a
// 32-byte entry per dictionary value kept about 305, a list of 8-byte
// postings per term about 350, and a []Doc table and map-backed
// dictionaries about 435.
func TestLoadedHeapPerDocument(t *testing.T) {
	const docs, maxLoadedBytesPerDoc = 20000, 290
	dir := bulkSnapshot(t, docs)
	fi, err := os.Stat(store.DocsPath(dir))
	if err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	e, err := Load(dir)
	if err != nil {
		t.Fatal(err)
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(e)
	beyond := int64(after.HeapAlloc) - int64(before.HeapAlloc) - fi.Size()
	per := beyond / docs
	if per > maxLoadedBytesPerDoc {
		t.Fatalf("Load keeps %d bytes beyond the %d-byte docs segment, %d a document: more than %d", beyond, fi.Size(), per, maxLoadedBytesPerDoc)
	}
	t.Logf("Load keeps %d bytes a document beyond the docs segment", per)
}

// Save hands the writer each row's bytes, the posting lists and the
// annotation tables as the index holds them, so it allocates per
// segment, never per term or document: saving a loaded 20k-document
// snapshot (11,304 terms) makes about 900 allocations, most of them
// the growth of each shard's term list, where copying every posting
// list made about 23,500 and decoding every row and re-interning each
// document's annotations from a map about 84,000.
func TestSaveAllocatesPerSegment(t *testing.T) {
	const docs, maxSaveAllocs = 20000, 1000
	e, err := Load(bulkSnapshot(t, docs))
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	allocs := testing.AllocsPerRun(1, func() {
		if err := e.Save(dir, nil); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > maxSaveAllocs {
		t.Fatalf("Save of %d loaded documents made %.0f allocations, more than %d", docs, allocs, maxSaveAllocs)
	}
	t.Logf("Save of %d loaded documents: %.0f allocations", docs, allocs)
}
