package index

import (
	"context"
	"fmt"
	"net/url"
	"reflect"
	"strings"
	"testing"
)

// topkCorpus builds a small mixed-host corpus with enough shared terms
// that queries match many documents.
func topkCorpus(t testing.TB, shards int) *Index {
	t.Helper()
	ix := NewSharded(shards)
	for i := 0; i < 60; i++ {
		host := fmt.Sprintf("h%d.example", i%3)
		ix.Add(Doc{
			URL:   fmt.Sprintf("http://%s/doc/%d", host, i),
			Title: fmt.Sprintf("ford focus listing %d", i),
			Text:  fmt.Sprintf("a used ford focus number %d for sale in seattle", i),
		})
	}
	return ix
}

// The admission filter restricts both the page and the total.
func TestTopKFilter(t *testing.T) {
	ix := topkCorpus(t, 4)
	q := "ford focus"
	keep := func(_ int, d *Doc, _ []AnnPair) bool {
		u, err := url.Parse(d.URL)
		return err == nil && u.Host == "h1.example"
	}
	hits, total, err := ix.TopK(context.Background(), q, 1000, 0, keep)
	if err != nil {
		t.Fatal(err)
	}
	if total != 20 || len(hits) != 20 {
		t.Fatalf("filtered total=%d hits=%d, want 20/20", total, len(hits))
	}
	for _, h := range hits {
		if u, _ := url.Parse(h.URL); u.Host != "h1.example" {
			t.Fatalf("filter leaked %s", h.URL)
		}
	}
	// The filtered ranking preserves the relative order of the full one.
	var fromFull []Result
	for _, h := range search(ix, q, 1000) {
		if keep(h.DocID, &Doc{URL: h.URL}, nil) {
			fromFull = append(fromFull, h)
		}
	}
	if !reflect.DeepEqual(hits, fromFull) {
		t.Fatal("filtered ranking disagrees with post-filtered full ranking")
	}
}

// The admission filter receives the document id (not just the row), so
// id-keyed side stores like AnnotationsOf can drive admission.
func TestTopKFilterSeesDocID(t *testing.T) {
	ix := topkCorpus(t, 4)
	hits, total, err := ix.TopK(context.Background(), "ford focus", 1000, 0,
		func(id int, d *Doc, _ []AnnPair) bool {
			// The corpus numbers URLs by insertion order, so the id and
			// its row must agree.
			if want := fmt.Sprintf("/doc/%d", id); !strings.HasSuffix(d.URL, want) {
				t.Fatalf("filter id %d does not match its row %s", id, d.URL)
			}
			return id%2 == 0
		})
	if err != nil {
		t.Fatal(err)
	}
	if total != 30 || len(hits) != 30 {
		t.Fatalf("id-filtered total=%d hits=%d, want 30/30", total, len(hits))
	}
	for _, h := range hits {
		if h.DocID%2 != 0 {
			t.Fatalf("filter leaked doc %d", h.DocID)
		}
	}
}

// A canceled context aborts scoring with its error — and must leave
// the pooled accumulator clean, so the next query on the same scratch
// is unpolluted.
func TestTopKCanceledContext(t *testing.T) {
	ix := topkCorpus(t, 4)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	hits, total, err := ix.TopK(ctx, "ford focus seattle", 10, 0, nil)
	if err == nil || hits != nil || total != 0 {
		t.Fatalf("canceled TopK = (%v, %d, %v), want (nil, 0, ctx.Err())", hits, total, err)
	}
	want := search(ix, "ford focus seattle", 10)
	for i := 0; i < 20; i++ {
		got, _, err := ix.TopK(context.Background(), "ford focus seattle", 10, 0, nil)
		if err != nil || !reflect.DeepEqual(got, want) {
			t.Fatalf("query %d after canceled query diverged (err=%v)", i, err)
		}
	}
}

// AnnotatedTopK at any k must be the k-prefix of the one canonical
// annotated ranking, and its pages must tile like the plain ones.
func TestAnnotatedTopKMatchesAnnotatedSearch(t *testing.T) {
	ix := topkCorpus(t, 4)
	for i := 0; i < 60; i += 2 {
		ix.Annotate(i, map[string]string{"make": "ford"})
	}
	q := "ford focus"
	full, _, _ := ix.AnnotatedTopK(context.Background(), q, 1000, 0, nil)
	for _, k := range []int{1, 5, 30} {
		got, total, err := ix.AnnotatedTopK(context.Background(), q, k, 0, nil)
		if err != nil || !reflect.DeepEqual(got, full[:k]) {
			t.Fatalf("k=%d: AnnotatedTopK is not the prefix of the full annotated ranking (err=%v)", k, err)
		}
		if total == 0 {
			t.Fatalf("k=%d: zero total", k)
		}
	}
	var paged []Result
	for offset := 0; offset < len(full); offset += 7 {
		page, _, err := ix.AnnotatedTopK(context.Background(), q, 7, offset, nil)
		if err != nil {
			t.Fatal(err)
		}
		paged = append(paged, page...)
	}
	if !reflect.DeepEqual(paged, full) {
		t.Fatal("annotated pages do not tile the full annotated ranking")
	}
}

// Annotated pages must tile even when the hit set crosses the re-rank
// depth: the ordering (re-ranked prefix + base-ordered tail) is
// canonical, so pages cut at any k/offset agree with the exhaustive
// page.
func TestAnnotatedTopKTilesAcrossRerankDepth(t *testing.T) {
	ix := NewSharded(4)
	for i := 0; i < 300; i++ {
		id, _ := ix.Add(Doc{
			URL:   fmt.Sprintf("http://h%d.example/doc/%d", i%3, i),
			Title: fmt.Sprintf("ford focus listing %d", i),
			Text:  fmt.Sprintf("a used ford focus number %d for sale in seattle", i),
		})
		if i%2 == 0 {
			ix.Annotate(id, map[string]string{"make": "ford"})
		} else {
			ix.Annotate(id, map[string]string{"make": "honda"})
		}
	}
	q := "ford focus seattle"
	full, total, err := ix.AnnotatedTopK(context.Background(), q, 1000, 0, nil)
	if err != nil || total <= rerankDepth {
		t.Fatalf("corpus does not cross the re-rank depth: total=%d err=%v", total, err)
	}
	for _, k := range []int{3, 10, 64} {
		var paged []Result
		for offset := 0; offset < total; offset += k {
			page, tot, err := ix.AnnotatedTopK(context.Background(), q, k, offset, nil)
			if err != nil || tot != total {
				t.Fatalf("k=%d offset=%d: total %d err %v", k, offset, tot, err)
			}
			paged = append(paged, page...)
		}
		if !reflect.DeepEqual(paged, full) {
			t.Fatalf("k=%d: annotated pages do not tile across the re-rank depth", k)
		}
	}
}
