package index

import (
	"fmt"
	"math"
	"reflect"
	"testing"
)

// twinCorpora builds two indexes over the same documents; skip marks
// ids (by insertion position) to leave out of the second one. The
// first index then Deletes those ids, so the pair must be search-
// equivalent: tombstoning a document must equal never having added it,
// down to the score bits.
func twinCorpora(n int, skip map[int]bool) (full, without *Index) {
	full, without = New(), New()
	for i := 0; i < n; i++ {
		d := Doc{
			URL:    fmt.Sprintf("http://cars.example/p%d", i),
			Title:  fmt.Sprintf("used car %d ford focus", i),
			Text:   fmt.Sprintf("great ford focus number %d in seattle, price %d", i, 1000+i),
			Source: fmt.Sprintf("form-%d", i%3),
		}
		id, _ := full.Add(d)
		full.Annotate(id, map[string]string{"make": "ford"})
		if !skip[i] {
			wid, _ := without.Add(d)
			without.Annotate(wid, map[string]string{"make": "ford"})
		}
	}
	for i := range skip {
		if !full.Delete(i) {
			panic("delete failed")
		}
	}
	return full, without
}

var deleteQueries = []string{"ford focus", "seattle price", "used car 7", "number 13", "absent-term"}

// liveSources counts the live documents of each non-empty Source.
func liveSources(ix *Index) map[string]int {
	counts := map[string]int{}
	ix.ForEachLive(func(_ int, d Doc, _ string) {
		if d.Source != "" {
			counts[d.Source]++
		}
	})
	return counts
}

// Deleted documents must stop existing for every observable quantity:
// live count, URL lookup, per-source counts, df, and — the hard part —
// BM25 scores, which must come out bit-identical to an index that
// never held the deleted documents (live N, avgdl and df feed the
// formula, not the raw table).
func TestDeleteEqualsNeverAdded(t *testing.T) {
	skip := map[int]bool{3: true, 7: true, 8: true, 20: true, 39: true}
	full, without := twinCorpora(40, skip)
	if full.Len() != without.Len() {
		t.Fatalf("live %d vs %d", full.Len(), without.Len())
	}
	if full.Deleted() != len(skip) {
		t.Fatalf("Deleted()=%d, want %d", full.Deleted(), len(skip))
	}
	if full.Has("http://cars.example/p7") {
		t.Error("deleted URL still present")
	}
	if a, b := liveSources(full), liveSources(without); !reflect.DeepEqual(a, b) {
		t.Errorf("per-source counts differ:\n  %v\n  %v", a, b)
	}
	for _, q := range deleteQueries {
		if a, b := full.DF(q), without.DF(q); a != b {
			t.Errorf("DF(%q) %d vs %d", q, a, b)
		}
		a, b := search(full, q, 50), search(without, q, 50)
		if len(a) != len(b) {
			t.Errorf("Search(%q) %d vs %d hits", q, len(a), len(b))
			continue
		}
		for i := range a {
			if a[i].URL != b[i].URL || math.Float64bits(a[i].Score) != math.Float64bits(b[i].Score) {
				t.Errorf("Search(%q) hit %d: %v vs %v", q, i, a[i], b[i])
			}
		}
	}
}

func TestDeleteEdgeCases(t *testing.T) {
	ix := New()
	id, _ := ix.Add(Doc{URL: "http://a.example/x", Title: "one doc", Text: "alpha beta"})
	if ix.Delete(-1) || ix.Delete(99) {
		t.Error("out-of-range delete succeeded")
	}
	if !ix.Delete(id) {
		t.Fatal("delete failed")
	}
	if ix.Delete(id) {
		t.Error("double delete succeeded")
	}
	if ix.Len() != 0 {
		t.Errorf("live count %d after deleting the only doc", ix.Len())
	}
	if got := search(ix, "alpha", 10); got != nil {
		t.Errorf("empty live corpus answered %v", got)
	}
	// The URL is free again; the re-added doc is a fresh id.
	id2, added := ix.Add(Doc{URL: "http://a.example/x", Title: "one doc", Text: "alpha beta gamma"})
	if !added || id2 == id {
		t.Fatalf("re-add after delete: id=%d added=%v", id2, added)
	}
	if got := search(ix, "gamma", 10); len(got) != 1 || got[0].DocID != id2 {
		t.Errorf("re-added doc not served: %v", got)
	}
}

// Deleting a document releases its annotation vocabulary: a value that
// survives only on dead documents must stop steering AnnotatedSearch.
func TestDeleteReleasesAnnotations(t *testing.T) {
	ix := New()
	civic, _ := ix.Add(Doc{URL: "http://a.example/civic", Title: "honda civic", Text: "a honda civic listing that mentions the ford focus"})
	ix.Annotate(civic, map[string]string{"make": "honda"})
	ford, _ := ix.Add(Doc{URL: "http://a.example/focus", Title: "ford focus", Text: "a ford focus listing"})
	ix.Annotate(ford, map[string]string{"make": "ford"})

	// While both live, the honda page is demoted for a ford query.
	res := annotatedSearch(ix, "ford focus", 10)
	if len(res) != 2 || res[0].DocID != ford {
		t.Fatalf("annotated ranking wrong: %v", res)
	}
	if ix.AnnotationsOf(civic) == nil {
		t.Fatal("missing annotations")
	}

	ix.Delete(ford)
	if ix.AnnotationsOf(ford) != nil {
		t.Error("deleted doc kept annotations")
	}
	// "ford" is no longer a known value of make (its only supporter is
	// gone), so the surviving civic page is served un-demoted.
	res = annotatedSearch(ix, "ford focus", 10)
	if len(res) != 1 || res[0].DocID != civic {
		t.Fatalf("post-delete ranking wrong: %v", res)
	}
	plain := search(ix, "ford focus", 10)
	if math.Float64bits(res[0].Score) != math.Float64bits(plain[0].Score) {
		t.Errorf("stale vocabulary still adjusts scores: %v vs %v", res[0].Score, plain[0].Score)
	}
}

// Compact is a normal form: whatever insertion/deletion history led to
// a live corpus, compacting renumbers into canonical URL order — so a
// churned-then-compacted index and a built-clean-then-compacted index
// agree on ids, scores and tie order exactly.
func TestCompactCanonicalizes(t *testing.T) {
	skip := map[int]bool{0: true, 11: true, 25: true}
	full, without := twinCorpora(30, skip)
	if got := full.Compact(); got != len(skip) {
		t.Fatalf("reclaimed %d, want %d", got, len(skip))
	}
	without.Compact()
	if full.Deleted() != 0 || full.TombstoneRatio() != 0 {
		t.Error("tombstones survived compact")
	}
	if full.Len() != without.Len() {
		t.Fatalf("live %d vs %d", full.Len(), without.Len())
	}
	for id := 0; id < full.Len(); id++ {
		if full.Doc(id) != without.Doc(id) {
			t.Fatalf("doc %d differs: %+v vs %+v", id, full.Doc(id), without.Doc(id))
		}
		if !reflect.DeepEqual(full.AnnotationsOf(id), without.AnnotationsOf(id)) {
			t.Fatalf("annotations of doc %d differ", id)
		}
	}
	for _, q := range deleteQueries {
		a, b := search(full, q, 10), search(without, q, 10)
		if !reflect.DeepEqual(a, b) {
			t.Errorf("post-compact Search(%q) differs:\n  %v\n  %v", q, a, b)
		}
		if a, b := annotatedSearch(full, q, 10), annotatedSearch(without, q, 10); !reflect.DeepEqual(a, b) {
			t.Errorf("post-compact AnnotatedSearch(%q) differs", q)
		}
	}
}
