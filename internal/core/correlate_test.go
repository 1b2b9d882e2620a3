package core

import (
	"net/url"
	"testing"

	"deepweb/internal/form"
	"deepweb/internal/htmlx"
	"deepweb/internal/textutil"
)

func formFromHTML(t *testing.T, html string) *form.Form {
	t.Helper()
	doc := htmlx.Parse(html)
	decls := htmlx.ExtractForms(doc)
	if len(decls) == 0 {
		t.Fatal("no form")
	}
	base, _ := url.Parse("http://site.example/search")
	f, err := form.FromDecl(base, decls[0], 0)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

func TestDetectRangesMinMax(t *testing.T) {
	f := formFromHTML(t, `<form action="/r">
		<input type="text" name="minprice"><input type="text" name="maxprice">
		<input type="text" name="zip"></form>`)
	pairs := DetectRanges(f)
	if len(pairs) != 1 {
		t.Fatalf("got %d pairs: %+v", len(pairs), pairs)
	}
	p := pairs[0]
	if p.MinInput != "minprice" || p.MaxInput != "maxprice" || p.Stem != "price" || p.Type != textutil.TypePrice {
		t.Errorf("pair = %+v", p)
	}
}

func TestDetectRangesFromTo(t *testing.T) {
	f := formFromHTML(t, `<form action="/r">
		<input type="text" name="year_from"><input type="text" name="year_to"></form>`)
	pairs := DetectRanges(f)
	if len(pairs) != 1 || pairs[0].Stem != "year" || pairs[0].Type != textutil.TypeDate {
		t.Fatalf("pairs = %+v", pairs)
	}
	if pairs[0].MinInput != "year_from" {
		t.Errorf("low side = %s", pairs[0].MinInput)
	}
}

func TestDetectRangesViaLabels(t *testing.T) {
	f := formFromHTML(t, `<form action="/r">
		<label for="a">Salary From</label><input type="text" name="a">
		<label for="b">Salary To</label><input type="text" name="b"></form>`)
	pairs := DetectRanges(f)
	if len(pairs) != 1 {
		t.Fatalf("label-based detection failed: %+v", pairs)
	}
	if pairs[0].MinInput != "a" || pairs[0].MaxInput != "b" {
		t.Errorf("pair = %+v", pairs[0])
	}
}

func TestDetectRangesNoFalsePositives(t *testing.T) {
	f := formFromHTML(t, `<form action="/r">
		<input type="text" name="city"><input type="text" name="model">
		<input type="text" name="q"></form>`)
	if pairs := DetectRanges(f); len(pairs) != 0 {
		t.Errorf("false positives: %+v", pairs)
	}
}

func TestDetectRangesDifferentStemsNotPaired(t *testing.T) {
	f := formFromHTML(t, `<form action="/r">
		<input type="text" name="minprice"><input type="text" name="maxyear"></form>`)
	if pairs := DetectRanges(f); len(pairs) != 0 {
		t.Errorf("mismatched stems paired: %+v", pairs)
	}
}

func TestDetectRangesSelectsExcluded(t *testing.T) {
	f := formFromHTML(t, `<form action="/r">
		<select name="minprice"><option>1</option></select>
		<input type="text" name="maxprice"></form>`)
	if pairs := DetectRanges(f); len(pairs) != 0 {
		t.Errorf("select participated in range: %+v", pairs)
	}
}

func TestDetectDBSelection(t *testing.T) {
	f := formFromHTML(t, `<form action="/r">
		<select name="category"><option value="">any</option><option value="movies">movies</option>
		<option value="music">music</option></select>
		<input type="text" name="q"></form>`)
	db := DetectDBSelection(f)
	if db == nil {
		t.Fatal("db-selection not detected")
	}
	if db.SelectInput != "category" || db.TextInput != "q" || len(db.Options) != 2 {
		t.Errorf("db = %+v", db)
	}
}

func TestDetectDBSelectionRejectsTypedBox(t *testing.T) {
	f := formFromHTML(t, `<form action="/r">
		<select name="state"><option value="wa">wa</option></select>
		<input type="text" name="zip"></form>`)
	if db := DetectDBSelection(f); db != nil {
		t.Errorf("typed box misdetected as db-selection: %+v", db)
	}
}

func TestDetectDBSelectionNeedsExactlyOneOfEach(t *testing.T) {
	f := formFromHTML(t, `<form action="/r">
		<select name="a"><option value="1">1</option></select>
		<select name="b"><option value="2">2</option></select>
		<input type="text" name="q"></form>`)
	if db := DetectDBSelection(f); db != nil {
		t.Errorf("two selects accepted: %+v", db)
	}
}

func TestLooksLikeSearchBox(t *testing.T) {
	cases := map[string]bool{"q": true, "query": true, "keywords": true, "search_terms": true}
	for n, want := range cases {
		if got := looksLikeSearchBox(n, ""); got != want {
			t.Errorf("looksLikeSearchBox(%q) = %v", n, got)
		}
	}
	if looksLikeSearchBox("model", "Model") {
		t.Error("model should not look like a search box")
	}
	if !looksLikeSearchBox("x", "Search our catalog") {
		t.Error("label signal ignored")
	}
}

func TestStripMarker(t *testing.T) {
	if s, ok := stripMarker("minprice", "", "min"); !ok || s != "price" {
		t.Errorf("minprice: %q %v", s, ok)
	}
	if s, ok := stripMarker("price_from", "", "from"); !ok || s != "price" {
		t.Errorf("price_from: %q %v", s, ok)
	}
	if _, ok := stripMarker("price", "", "min"); ok {
		t.Error("no marker should not match")
	}
}
