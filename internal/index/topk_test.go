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

// The host restriction limits both the page and the total, and keeps
// the relative order of the full ranking.
func TestTopKFilter(t *testing.T) {
	ix := topkCorpus(t, 4)
	q := "ford focus"
	hits, total, err := ix.TopK(context.Background(), q, 1000, 0, &Filter{Host: "h1.example"})
	if err != nil {
		t.Fatal(err)
	}
	if total != 20 || len(hits) != 20 {
		t.Fatalf("filtered total=%d hits=%d, want 20/20", total, len(hits))
	}
	var fromFull []Result
	for _, h := range search(ix, q, 1000) {
		if u, err := url.Parse(h.URL); err == nil && u.Host == "h1.example" {
			fromFull = append(fromFull, h)
		}
	}
	if !reflect.DeepEqual(hits, fromFull) {
		t.Fatal("filtered ranking disagrees with post-filtered full ranking")
	}
	// A host the index has never seen matches nothing.
	if hits, total, err := ix.TopK(context.Background(), q, 10, 0, &Filter{Host: "nosuch.example"}); err != nil || total != 0 || len(hits) != 0 {
		t.Fatalf("unknown host: total=%d hits=%d err=%v, want an empty page", total, len(hits), err)
	}
}

// Host and Match compose: the page and the total are the intersection,
// and Match sees each candidate's own row and document.
func TestTopKFilterHostAndMatch(t *testing.T) {
	ix := topkCorpus(t, 4)
	for id := 0; id < 60; id++ {
		ix.Annotate(id, map[string]string{"n": fmt.Sprint(id)})
	}
	f := &Filter{Host: "h1.example", Match: func(row []AnnPair, d *Doc) bool {
		if len(row) != 1 {
			t.Fatalf("row of %s has %d pairs, want 1", d.URL, len(row))
		}
		n := ix.AnnotationColumns()[row[0].Attr].Values[row[0].Code].Text
		// The corpus numbers URLs by insertion order, like the
		// annotation, so a candidate's row and document must agree.
		if !strings.HasSuffix(d.URL, "/doc/"+n) {
			t.Fatalf("Match got row n=%s with document %s", n, d.URL)
		}
		if u, _ := url.Parse(d.URL); u.Host != "h1.example" {
			t.Fatalf("Match saw %s, off the filtered host", d.URL)
		}
		return strings.HasSuffix(d.URL, "0") || strings.HasSuffix(d.URL, "5")
	}}
	hits, total, err := ix.TopK(context.Background(), "ford focus", 1000, 0, f)
	if err != nil {
		t.Fatal(err)
	}
	var want []Result
	for _, h := range search(ix, "ford focus", 1000) {
		if u, _ := url.Parse(h.URL); u.Host == "h1.example" && (strings.HasSuffix(h.URL, "0") || strings.HasSuffix(h.URL, "5")) {
			want = append(want, h)
		}
	}
	if len(want) == 0 || total != len(want) || !reflect.DeepEqual(hits, want) {
		t.Fatalf("Host+Match total=%d hits=%d, want the %d hits of both", total, len(hits), len(want))
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
