package index

import (
	"context"
	"fmt"
	"math"
	"reflect"
	"strconv"
	"strings"
	"testing"
)

func annotatedIndex() *Index {
	b := New()
	// A real Ford Focus listings page…
	id1, _ := b.Add(Doc{URL: "ford-page", Text: "ford focus 1993 clean title low miles ford focus wagon"})
	b.Annotate(id1, map[string]string{"make": "ford"})
	// …and the §5.1 decoy: a Honda page whose text mentions the Focus.
	id2, _ := b.Add(Doc{URL: "honda-page", Text: "honda civic 1993 better mileage than the ford focus"})
	b.Annotate(id2, map[string]string{"make": "honda"})
	// An unannotated surface-web page.
	b.Add(Doc{URL: "blog", Text: "my old ford focus 1993 road trip story"})
	return b.Freeze()
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
	b := New()
	id, _ := b.Add(Doc{URL: "u", Text: "x y"})
	b.Annotate(id, map[string]string{"": "v", "attr": "", "ok": "Val"})
	anns := b.Freeze().AnnotationsOf(id)
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
		b := New()
		id, _ := b.Add(Doc{URL: "u", Text: "ford honda audi"})
		b.Annotate(id, map[string]string{"Make": "ford", "make ": "honda", "MAKE": "audi", "year": "2001", " YEAR": ""})
		if got := b.Freeze().AnnotationsOf(id); !reflect.DeepEqual(got, want) {
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
	b := New()
	if got := annotatedSearch(b.Freeze(), "anything", 5); got != nil {
		t.Error("empty index should return nil")
	}
	b.Add(Doc{URL: "u", Text: "hello"})
	if got := annotatedSearch(b.Freeze(), "hello", 0); got != nil {
		t.Error("k=0 should return nil")
	}
}

func TestAnnotatedSearchMultiWordValue(t *testing.T) {
	b := New()
	id1, _ := b.Add(Doc{URL: "sf", Text: "listings in san francisco bay area"})
	b.Annotate(id1, map[string]string{"city": "san francisco"})
	id2, _ := b.Add(Doc{URL: "sd", Text: "san diego listings mention san francisco once"})
	b.Annotate(id2, map[string]string{"city": "san diego"})
	ann := annotatedSearch(b.Freeze(), "homes san francisco", 2)
	if len(ann) == 0 || ann[0].URL != "sf" {
		t.Errorf("multi-word value handling wrong: %+v", ann)
	}
}

// A query that mentions two annotation attributes multiplies two
// factors into each annotated hit. Float products do not commute in the
// last bit, so the factors must apply in a fixed order: the same query
// must score — and break near-ties — identically on every run.
func TestAnnotatedTwoAttributeQueryIsBitStable(t *testing.T) {
	b := NewSharded(4)
	makes, cities := []string{"ford", "honda"}, []string{"seattle", "portland", "austin"}
	for i := 0; i < 120; i++ {
		mk, city := makes[i%2], cities[i%3]
		id, _ := b.Add(Doc{
			URL:   fmt.Sprintf("http://cars.example/%d", i),
			Title: fmt.Sprintf("%s listing %d", mk, i),
			Text:  fmt.Sprintf("used ford focus or honda civic %s seattle portland austin %s", strings.Repeat("clean ", i%7), city),
		})
		b.Annotate(id, map[string]string{"make": mk, "city": city})
	}
	ix := b.Freeze()
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

// ParseNumber's prefilter only spares strconv.ParseFloat inputs it
// would refuse: every reading, and every refusal, is ParseFloat's.
func TestParseNumberIsParseFloat(t *testing.T) {
	for _, v := range []string{"", "nan", "NaN", "inf", "-inf", "+Inf", "infinity", "-0", "0x1p-2", "0x1_0p0", "+5", ".5",
		"1e3", "1_000", "1,000", "1 000", " 5", "5 ", "n/a", "new car", "in stock", "ford", "12000.5", "1e400", "-"} {
		num, ok := ParseNumber(v)
		want, err := strconv.ParseFloat(v, 64)
		if ok != (err == nil) || ok && math.Float64bits(num) != math.Float64bits(want) {
			t.Errorf("ParseNumber(%q) = %v, %v; strconv.ParseFloat = %v, %v", v, num, ok, want, err)
		}
	}
}
