// The race detector makes sync.Pool drop items at random, so the
// search scratch is sometimes allocated afresh: allocation counts are
// only meaningful without it.

//go:build !race

package engine

import (
	"context"
	"fmt"
	"maps"
	"testing"

	"deepweb/internal/index"
	"deepweb/internal/query"
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
				e := New()
				for i := 0; i < n; i++ {
					id, _ := e.Index.Add(index.Doc{
						URL:   fmt.Sprintf("http://cars.example/%d", i),
						Title: "used ford focus",
						Text:  fmt.Sprintf("listing %d", i),
					})
					anns := maps.Clone(schemas[i%len(schemas)])
					anns["price"] = fmt.Sprint(5000 + i%9*1000)
					e.Index.Annotate(id, anns)
				}
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
