package index

import (
	"fmt"
	"testing"
	"testing/quick"
)

func TestAddAndSearch(t *testing.T) {
	ix := New()
	ix.Add(Doc{URL: "u1", Title: "used cars", Text: "ford focus 1993 for sale, clean title"})
	ix.Add(Doc{URL: "u2", Title: "recipes", Text: "lasagna with ricotta and basil"})
	ix.Add(Doc{URL: "u3", Title: "used cars", Text: "honda civic 1999, better mileage than the ford focus"})

	res := search(ix, "ford focus", 10)
	if len(res) != 2 {
		t.Fatalf("got %d results, want 2", len(res))
	}
	if res[0].URL != "u1" {
		t.Errorf("top hit = %s, want u1 (both query terms, shorter doc)", res[0].URL)
	}
}

func TestSearchRanksExactDocHigher(t *testing.T) {
	ix := New()
	ix.Add(Doc{URL: "exact", Title: "", Text: "zipcode lookup service"})
	ix.Add(Doc{URL: "partial", Title: "", Text: "zipcode appears here among many many other completely unrelated words about gardening and plumbing"})
	res := search(ix, "zipcode lookup", 2)
	if res[0].URL != "exact" {
		t.Errorf("length normalization failed: top = %s", res[0].URL)
	}
}

func TestDuplicateURLNotReindexed(t *testing.T) {
	ix := New()
	id1, added1 := ix.Add(Doc{URL: "u", Text: "alpha"})
	id2, added2 := ix.Add(Doc{URL: "u", Text: "beta"})
	if !added1 || added2 || id1 != id2 {
		t.Errorf("dup handling wrong: %d/%v then %d/%v", id1, added1, id2, added2)
	}
	if ix.Len() != 1 {
		t.Errorf("Len = %d, want 1", ix.Len())
	}
	// Content of the duplicate must not have been indexed.
	if res := search(ix, "beta", 1); len(res) != 0 {
		t.Error("duplicate's text leaked into the index")
	}
}

func TestSearchEmptyAndUnknown(t *testing.T) {
	ix := New()
	if res := search(ix, "anything", 5); res != nil {
		t.Error("empty index should return nil")
	}
	ix.Add(Doc{URL: "u", Text: "hello world"})
	if res := search(ix, "", 5); res != nil {
		t.Error("empty query should return nil")
	}
	if res := search(ix, "the of and", 5); res != nil {
		t.Error("all-stopword query should return nil")
	}
	if res := search(ix, "zzzzunknown", 5); len(res) != 0 {
		t.Error("unknown term should return no hits")
	}
	if res := search(ix, "hello", 0); res != nil {
		t.Error("k=0 should return nil")
	}
}

func TestStemmingConflatesForms(t *testing.T) {
	ix := New()
	ix.Add(Doc{URL: "u", Text: "listings of apartments"})
	if res := search(ix, "apartment listing", 1); len(res) != 1 {
		t.Error("stemming failed to conflate plural/singular")
	}
}

func TestTitleBoost(t *testing.T) {
	ix := New()
	ix.Add(Doc{URL: "title-hit", Title: "marathon results", Text: "other content entirely"})
	ix.Add(Doc{URL: "body-hit", Title: "something", Text: "marathon results mentioned once in passing text"})
	res := search(ix, "marathon results", 2)
	if len(res) != 2 || res[0].URL != "title-hit" {
		t.Errorf("title boost failed: %+v", res)
	}
}

func TestDFAndHas(t *testing.T) {
	ix := New()
	ix.Add(Doc{URL: "a", Text: "carrot"})
	ix.Add(Doc{URL: "b", Text: "carrot potato"})
	if df := ix.DF("carrot"); df != 2 {
		t.Errorf("DF(carrot) = %d, want 2", df)
	}
	if df := ix.DF("carrots"); df != 2 {
		t.Errorf("DF(carrots) should stem to carrot, got %d", df)
	}
	if df := ix.DF(""); df != 0 {
		t.Errorf("DF(empty) = %d", df)
	}
	if !ix.Has("a") || ix.Has("zzz") {
		t.Error("Has wrong")
	}
}

func TestSearchDeterministicTieBreak(t *testing.T) {
	ix := New()
	// Identical docs at different URLs score identically.
	ix.Add(Doc{URL: "first", Text: "unique pelican"})
	ix.Add(Doc{URL: "second", Text: "unique pelican"})
	res := search(ix, "pelican", 2)
	if res[0].URL != "first" || res[1].URL != "second" {
		t.Errorf("tie-break not by doc id: %+v", res)
	}
}

func TestSearchKTruncation(t *testing.T) {
	ix := New()
	for i := 0; i < 20; i++ {
		ix.Add(Doc{URL: fmt.Sprintf("u%d", i), Text: "shared term pelican"})
	}
	if res := search(ix, "pelican", 5); len(res) != 5 {
		t.Errorf("k truncation: got %d", len(res))
	}
}

func TestConcurrentAddSearch(t *testing.T) {
	ix := New()
	done := make(chan bool)
	go func() {
		for i := 0; i < 200; i++ {
			ix.Add(Doc{URL: fmt.Sprintf("u%d", i), Text: fmt.Sprintf("doc number %d pelican", i)})
		}
		done <- true
	}()
	for i := 0; i < 200; i++ {
		search(ix, "pelican", 3)
	}
	<-done
	if ix.Len() != 200 {
		t.Errorf("Len = %d", ix.Len())
	}
}

// Property: searching for a word known to be in exactly one document
// finds that document at rank 1.
func TestSearchPropertyFindsUniqueToken(t *testing.T) {
	ix := New()
	for i := 0; i < 50; i++ {
		ix.Add(Doc{URL: fmt.Sprintf("u%d", i), Text: fmt.Sprintf("filler words plus unique%dtoken here", i)})
	}
	f := func(pick uint8) bool {
		i := int(pick) % 50
		res := search(ix, fmt.Sprintf("unique%dtoken", i), 1)
		return len(res) == 1 && res[0].URL == fmt.Sprintf("u%d", i)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: scores are positive and sorted descending.
func TestSearchPropertySorted(t *testing.T) {
	ix := New()
	words := []string{"alpha", "beta", "gamma", "delta", "epsilon"}
	for i := 0; i < 40; i++ {
		text := ""
		for j, w := range words {
			if i%(j+2) == 0 {
				text += w + " "
			}
		}
		ix.Add(Doc{URL: fmt.Sprintf("u%d", i), Text: text})
	}
	f := func(q1, q2 uint8) bool {
		q := words[int(q1)%len(words)] + " " + words[int(q2)%len(words)]
		res := search(ix, q, 40)
		prev := 1e18
		for _, r := range res {
			if r.Score <= 0 || r.Score > prev+1e-9 {
				return false
			}
			prev = r.Score
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
