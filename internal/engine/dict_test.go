package engine

import (
	"context"
	"fmt"
	"maps"
	"slices"
	"strings"
	"testing"

	"deepweb/internal/index"
	"deepweb/internal/query"
	"deepweb/internal/store"
)

// dictCorpus is a small engine whose make dictionary holds one-byte
// values at adjacent codes, non-ASCII values and a 300-byte value,
// beside pairs that intern nothing (an empty value, one of spaces), and
// whose price dictionary holds the numeric readings ParseNumber must
// keep: -0, nan, a hex float. It returns the engine and each
// document's expected annotations.
func dictCorpus(t *testing.T) (*Engine, []map[string]string) {
	t.Helper()
	var sb strings.Builder
	for i := range 59 {
		fmt.Fprintf(&sb, "w%03d ", i)
	}
	long := sb.String() + "final" // 60 words, 300 bytes
	given := []map[string]string{
		{"make": "a", "model": "", "note": "  "},
		{"make": "b", "model": "x"},
		{"make": "škoda", "city": "東京"},
		{"make": long},
		{"price": "-0"},
		{"price": "nan"},
		{"price": "0x1p-2"},
		{"price": "12000", "make": "Straße"},
		nil,
	}
	b := index.New()
	want := make([]map[string]string, len(given))
	for i, anns := range given {
		text := "listing car"
		if anns == nil {
			text = "listing car škoda"
		}
		id, _ := b.Add(index.Doc{URL: fmt.Sprintf("http://dict.example/%d", i), Title: "listing", Text: text})
		b.Annotate(id, anns)
		for k, v := range anns {
			if v = strings.ToLower(strings.TrimSpace(v)); v != "" {
				if want[i] == nil {
					want[i] = map[string]string{}
				}
				want[i][k] = v
			}
		}
	}
	return serve(b), want
}

// admitted returns the ids a filtered search admits, ascending.
func admitted(t *testing.T, e *Engine, preds ...query.Predicate) []int {
	t.Helper()
	resp, err := e.Search(context.Background(), SearchRequest{Query: "listing", K: 1000, Filters: preds})
	if err != nil {
		t.Fatal(err)
	}
	var ids []int
	for _, r := range resp.Results {
		ids = append(ids, r.DocID)
	}
	slices.Sort(ids)
	return ids
}

// A dictionary reads back value by value on every path: built, after
// Save→Load (the columns segment's lengths become end offsets into one
// copy of the text), through AnnotationsOf, a Bound's equality and
// numeric predicates, and AnnotatedTopK's mentions.
func TestDictionaryRoundTrip(t *testing.T) {
	e, want := dictCorpus(t)
	dir := t.TempDir()
	if err := e.Save(dir, nil); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(dir)
	if err != nil {
		t.Fatal(err)
	}
	long := want[3]["make"]
	for name, e := range map[string]*Engine{"built": e, "loaded": loaded} {
		for id, w := range want {
			if got := e.Index.AnnotationsOf(id); !maps.Equal(got, w) {
				t.Errorf("%s: AnnotationsOf(%d) = %q, want %q", name, id, got, w)
			}
		}
		for _, tc := range []struct {
			pred query.Predicate
			want []int
		}{
			{query.Eq("make", "a"), []int{0}},
			{query.Eq("make", "b"), []int{1}},
			{query.Eq("make", "škoda"), []int{2, 8}}, // doc 8 by its text
			{query.Eq("city", "東京"), []int{2}},
			{query.Eq("make", long), []int{3}},
			{query.Eq("make", "straße"), []int{7}},
			{mustPred(t, "price<1"), []int{4, 6}},         // -0 and 0.25; nan contradicts
			{mustPred(t, "price:-0..-0"), []int{4}},       // -0 reads as zero
			{mustPred(t, "price>=0.25"), []int{6, 7}},     // 0x1p-2 is exactly 0.25
			{mustPred(t, "price>-1e300"), []int{4, 6, 7}}, // nan satisfies no bound
		} {
			if got := admitted(t, e, tc.pred); !slices.Equal(got, tc.want) {
				t.Errorf("%s: %v admits %v, want %v", name, tc.pred, got, tc.want)
			}
		}
		// A mentioned make boosts the document carrying it by 1.25 and
		// demotes every other document with a make to a tenth.
		for q, boosted := range map[string]int{"listing škoda": 2, "listing " + long: 3} {
			plain, err := e.Search(context.Background(), SearchRequest{Query: q, K: 10})
			if err != nil {
				t.Fatal(err)
			}
			ranked, err := e.Search(context.Background(), SearchRequest{Query: q, K: 10, Annotated: true})
			if err != nil {
				t.Fatal(err)
			}
			base := map[int]float64{}
			for _, r := range plain.Results {
				base[r.DocID] = r.Score
			}
			for _, r := range ranked.Results {
				factor := 1.0
				if _, ok := want[r.DocID]["make"]; ok {
					factor = 0.10
				}
				if r.DocID == boosted {
					factor = 1.25
				}
				if r.Score != base[r.DocID]*factor {
					t.Errorf("%s: annotated %q scores doc %d %v, want %v × its plain %v", name, clip(q), r.DocID, r.Score, factor, base[r.DocID])
				}
			}
		}
	}
	for _, req := range []SearchRequest{
		{Query: "listing škoda", K: 10, Annotated: true},
		{Query: "listing a b", K: 10, Annotated: true},
		{Query: "listing", K: 10, Filters: []query.Predicate{mustPred(t, "price<100")}},
	} {
		a, err := e.Search(context.Background(), req)
		if err != nil {
			t.Fatal(err)
		}
		b, err := loaded.Search(context.Background(), req)
		if err != nil {
			t.Fatal(err)
		}
		assertBitIdentical(t, describe(req), b, a)
	}
}

// Annotate on the builder a snapshot loads into (store.Load) interns
// new values onto the dictionary text the load installed — enough of them that the text, its end
// offsets and the numeric column grow, over several bitset words — and
// every earlier code keeps its text, its numeric reading and its
// documents.
func TestAnnotateInternsOntoLoadedDictionary(t *testing.T) {
	e, want := dictCorpus(t)
	dir := t.TempDir()
	if err := e.Save(dir, nil); err != nil {
		t.Fatal(err)
	}
	b, _, err := store.Load(dir, DefaultWorkers)
	if err != nil {
		t.Fatal(err)
	}
	var added []int
	for i := range 200 {
		id, _ := b.Add(index.Doc{URL: fmt.Sprintf("http://dict.example/new/%d", i), Title: "listing", Text: "listing car"})
		anns := map[string]string{"make": fmt.Sprintf("new make %d", i), "price": fmt.Sprint(100000 + i)}
		b.Annotate(id, anns)
		want, added = append(want, anns), append(added, id)
	}
	loaded := serve(b)
	ix := loaded.Index
	for id, w := range want {
		if got := ix.AnnotationsOf(id); !maps.Equal(got, w) {
			t.Errorf("AnnotationsOf(%d) = %q, want %q", id, got, w)
		}
	}
	for _, tc := range []struct {
		pred query.Predicate
		want []int
	}{
		{query.Eq("make", "škoda"), []int{2, 8}}, // doc 8 by its text
		{query.Eq("make", "new make 7"), added[7:8]},
		{query.Eq("make", want[3]["make"]), []int{3}},
		{mustPred(t, "price<8"), []int{4, 6}},
		{mustPred(t, "price>=100000"), added},
		{mustPred(t, "price:100063..100064"), added[63:65]},
	} {
		if got := admitted(t, loaded, tc.pred); !slices.Equal(got, tc.want) {
			t.Errorf("%v admits %v, want %v", tc.pred, got, tc.want)
		}
	}
}

// An equality predicate whose value its attribute's dictionary lacks
// resolves to no code: every document holding that column is rejected,
// whatever its text says, and a document without the column is decided
// by its text.
func TestEqAbsentFromDictionary(t *testing.T) {
	b := index.New()
	for i, d := range []struct {
		anns map[string]string
		text string
	}{
		{map[string]string{"make": "ford"}, "saab listing"},
		{map[string]string{"make": "volvo"}, "listing"},
		{nil, "saab listing"},
		{map[string]string{"city": "oslo"}, "saab listing"},
		{map[string]string{"city": "oslo"}, "listing"},
	} {
		id, _ := b.Add(index.Doc{URL: fmt.Sprintf("http://absent.example/%d", i), Title: "listing", Text: d.text})
		b.Annotate(id, d.anns)
	}
	e := serve(b)
	dir := t.TempDir()
	if err := e.Save(dir, nil); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(dir)
	if err != nil {
		t.Fatal(err)
	}
	for name, e := range map[string]*Engine{"built": e, "loaded": loaded} {
		if got := admitted(t, e, query.Eq("make", "saab")); !slices.Equal(got, []int{2, 3}) {
			t.Errorf("%s: make:saab admits %v, want the documents without a make whose text says saab, [2 3]", name, got)
		}
		if got := admitted(t, e, query.Eq("colour", "saab")); !slices.Equal(got, []int{0, 2, 3}) {
			t.Errorf("%s: colour:saab, an attribute no document holds, admits %v, want the texts, [0 2 3]", name, got)
		}
	}
}
