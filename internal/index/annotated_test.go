package index

import (
	"context"
	"fmt"
	"math"
	"reflect"
	"strings"
	"sync"
	"testing"
)

func annotatedIndex() *Index {
	ix := New()
	// A real Ford Focus listings page…
	id1, _ := ix.Add(Doc{URL: "ford-page", Text: "ford focus 1993 clean title low miles ford focus wagon"})
	ix.Annotate(id1, map[string]string{"make": "ford"})
	// …and the §5.1 decoy: a Honda page whose text mentions the Focus.
	id2, _ := ix.Add(Doc{URL: "honda-page", Text: "honda civic 1993 better mileage than the ford focus"})
	ix.Annotate(id2, map[string]string{"make": "honda"})
	// An unannotated surface-web page.
	ix.Add(Doc{URL: "blog", Text: "my old ford focus 1993 road trip story"})
	return ix
}

func TestAnnotateAndLookup(t *testing.T) {
	ix := annotatedIndex()
	anns := ix.AnnotationsOf(0)
	if anns["make"] != "ford" {
		t.Errorf("AnnotationsOf(0) = %v", anns)
	}
	if ix.AnnotationsOf(2) != nil {
		t.Error("unannotated doc should give nil")
	}
	// Returned map is a copy.
	anns["make"] = "mutated"
	if ix.AnnotationsOf(0)["make"] != "ford" {
		t.Error("AnnotationsOf leaked internal state")
	}
}

func TestAnnotateIgnoresEmpty(t *testing.T) {
	ix := New()
	id, _ := ix.Add(Doc{URL: "u", Text: "x y"})
	ix.Annotate(id, map[string]string{"": "v", "attr": "", "ok": "Val"})
	anns := ix.AnnotationsOf(id)
	if len(anns) != 1 || anns["ok"] != "val" {
		t.Errorf("anns = %v", anns)
	}
}

// Keys that normalize to one attribute are decided by a total rule,
// not by map order: they apply in sorted raw order, so the value of the
// greatest key wins ("make " > "Make" > "MAKE"), on every index.
func TestAnnotateKeyOrderIsTotal(t *testing.T) {
	want := map[string]string{"make": "honda", "year": "2001"}
	for run := 0; run < 200; run++ {
		ix := New()
		id, _ := ix.Add(Doc{URL: "u", Text: "ford honda audi"})
		ix.Annotate(id, map[string]string{"Make": "ford", "make ": "honda", "MAKE": "audi", "year": "2001", " YEAR": ""})
		if got := ix.AnnotationsOf(id); !reflect.DeepEqual(got, want) {
			t.Fatalf("run %d: annotations %v, want %v", run, got, want)
		}
	}
}

func TestAnnotatedSearchDemotesContradiction(t *testing.T) {
	ix := annotatedIndex()
	// Plain search: decoy competes on equal terms.
	plain := search(ix, "ford focus 1993", 3)
	if len(plain) != 3 {
		t.Fatalf("plain hits = %d", len(plain))
	}
	// Annotated search: the honda page is demoted below both others.
	ann := annotatedSearch(ix, "ford focus 1993", 3)
	if len(ann) != 3 {
		t.Fatalf("annotated hits = %d", len(ann))
	}
	if ann[len(ann)-1].URL != "honda-page" {
		t.Errorf("contradicted page not last: %+v", ann)
	}
	if ann[0].URL == "honda-page" {
		t.Error("contradicted page ranked first")
	}
}

func TestAnnotatedSearchBoostsConfirmation(t *testing.T) {
	ix := annotatedIndex()
	ann := annotatedSearch(ix, "honda civic", 3)
	if len(ann) == 0 || ann[0].URL != "honda-page" {
		t.Errorf("confirmed page not first: %+v", ann)
	}
}

func TestAnnotatedSearchNoVocabularyMatchIsPlain(t *testing.T) {
	ix := annotatedIndex()
	plain := search(ix, "road trip story", 3)
	ann := annotatedSearch(ix, "road trip story", 3)
	if len(plain) != len(ann) {
		t.Fatalf("lengths differ: %d vs %d", len(plain), len(ann))
	}
	for i := range plain {
		if plain[i].URL != ann[i].URL {
			t.Errorf("rank %d differs without annotation signal", i)
		}
	}
}

func TestAnnotatedSearchUnannotatedUntouched(t *testing.T) {
	ix := annotatedIndex()
	ann := annotatedSearch(ix, "ford focus 1993", 3)
	for _, hit := range ann {
		if hit.URL == "blog" && hit.Score <= 0 {
			t.Error("unannotated doc score altered")
		}
	}
}

func TestAnnotatedSearchEdgeCases(t *testing.T) {
	ix := New()
	if got := annotatedSearch(ix, "anything", 5); got != nil {
		t.Error("empty index should return nil")
	}
	ix.Add(Doc{URL: "u", Text: "hello"})
	if got := annotatedSearch(ix, "hello", 0); got != nil {
		t.Error("k=0 should return nil")
	}
}

func TestAnnotatedSearchMultiWordValue(t *testing.T) {
	ix := New()
	id1, _ := ix.Add(Doc{URL: "sf", Text: "listings in san francisco bay area"})
	ix.Annotate(id1, map[string]string{"city": "san francisco"})
	id2, _ := ix.Add(Doc{URL: "sd", Text: "san diego listings mention san francisco once"})
	ix.Annotate(id2, map[string]string{"city": "san diego"})
	ann := annotatedSearch(ix, "homes san francisco", 2)
	if len(ann) == 0 || ann[0].URL != "sf" {
		t.Errorf("multi-word value handling wrong: %+v", ann)
	}
}

// A query that mentions two annotation attributes multiplies two
// factors into each annotated hit. Float products do not commute in the
// last bit, so the factors must apply in a fixed order: the same query
// must score — and break near-ties — identically on every run.
func TestAnnotatedTwoAttributeQueryIsBitStable(t *testing.T) {
	ix := NewSharded(4)
	makes, cities := []string{"ford", "honda"}, []string{"seattle", "portland", "austin"}
	for i := 0; i < 120; i++ {
		mk, city := makes[i%2], cities[i%3]
		id, _ := ix.Add(Doc{
			URL:   fmt.Sprintf("http://cars.example/%d", i),
			Title: fmt.Sprintf("%s listing %d", mk, i),
			Text:  fmt.Sprintf("used ford focus or honda civic %s seattle portland austin %s", strings.Repeat("clean ", i%7), city),
		})
		ix.Annotate(id, map[string]string{"make": mk, "city": city})
	}
	const q = "used ford seattle"
	want, _, err := ix.AnnotatedTopK(context.Background(), q, 50, 0, nil)
	if err != nil || len(want) != 50 {
		t.Fatalf("annotated query: %d hits, err %v", len(want), err)
	}
	for run := 0; run < 300; run++ {
		got, _, _ := ix.AnnotatedTopK(context.Background(), q, 50, 0, nil)
		for i := range want {
			if got[i].DocID != want[i].DocID || math.Float64bits(got[i].Score) != math.Float64bits(want[i].Score) {
				t.Fatalf("run %d rank %d: doc %d score %x, first run had doc %d score %x",
					run, i, got[i].DocID, math.Float64bits(got[i].Score), want[i].DocID, math.Float64bits(want[i].Score))
			}
		}
	}
}

// AnnotatedTopK reads the vocabulary, ranks, and re-reads rows for the
// adjustment; a Compact landing between those steps would renumber the
// rows under it. Every answer given beside a loop of Delete + Compact
// must therefore be bit-identical to the answer at one state the loop
// passes through — never a mix of two. Run with -race.
func TestAnnotatedTopKIsAtomicUnderCompact(t *testing.T) {
	const n, steps, perStep = 240, 20, 4
	makes := []string{"ford", "honda", "toyota"}
	build := func() *Index {
		ix := NewSharded(4)
		for i := 0; i < n; i++ {
			// URL order differs from insertion order, so every Compact
			// renumbers the survivors.
			id, _ := ix.Add(Doc{
				URL:  fmt.Sprintf("http://cars.example/%03d", (i*97)%n),
				Text: fmt.Sprintf("used ford focus honda civic toyota corolla %s %d", makes[i%3], i%11),
			})
			ix.Annotate(id, map[string]string{"make": makes[(i/3)%3], "year": fmt.Sprint(1990 + i%7)})
		}
		return ix
	}
	// step deletes perStep documents by URL, calling after once per
	// Delete, then compacts.
	step := func(ix *Index, s int, after func()) {
		for j := 0; j < perStep; j++ {
			url := fmt.Sprintf("http://cars.example/%03d", (s*perStep+j)*7%n)
			ix.mu.RLock()
			id := ix.byURL[url]
			ix.mu.RUnlock()
			ix.Delete(id)
			after()
		}
		ix.Compact()
	}
	queries := []string{"used ford focus", "honda civic 1993", "toyota corolla 5"}
	answer := func(ix *Index, q string) string {
		hits, total, err := ix.AnnotatedTopK(context.Background(), q, 40, 0, nil)
		var b strings.Builder
		fmt.Fprintf(&b, "total=%d err=%v", total, err)
		for _, h := range hits {
			fmt.Fprintf(&b, " %d:%s:%x", h.DocID, h.URL, math.Float64bits(h.Score))
		}
		return b.String()
	}

	// Every state the loop passes through, from a twin index.
	ref := build()
	valid := make([]map[string]bool, len(queries))
	record := func() {
		for qi, q := range queries {
			valid[qi][answer(ref, q)] = true
		}
	}
	for qi := range valid {
		valid[qi] = map[string]bool{}
	}
	record()
	for s := 0; s < steps; s++ {
		step(ref, s, record)
		record()
	}

	ix := build()
	done := make(chan struct{})
	go func() {
		defer close(done)
		for s := 0; s < steps; s++ {
			step(ix, s, func() {})
		}
	}()
	var wg sync.WaitGroup
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for i := r; ; i++ {
				select {
				case <-done:
					return
				default:
				}
				q := queries[i%len(queries)]
				if got := answer(ix, q); !valid[i%len(queries)][got] {
					t.Errorf("%q: answer matches no state of the Delete + Compact loop:\n%s", q, got)
					return
				}
			}
		}(r)
	}
	wg.Wait()
}
