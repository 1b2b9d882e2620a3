package webtables

import (
	"reflect"
	"testing"

	"deepweb/internal/htmlx"
	"deepweb/internal/webx"
)

func pageOf(url, html string) *webx.Page {
	return &webx.Page{URL: url, Status: 200, HTML: html, Doc: htmlx.Parse(html)}
}

func TestExtractAndFilter(t *testing.T) {
	pages := []*webx.Page{
		pageOf("http://a.example/x", `
			<table><tr><th>Make</th><th>Price</th></tr>
			<tr><td>ford</td><td>2500</td></tr>
			<tr><td>honda</td><td>3100</td></tr></table>
			<table><tr><td>layout</td></tr></table>`),
		pageOf("http://b.example/y", `
			<table><tr><th>City</th><th>Zip</th></tr>
			<tr><td>seattle</td><td>98101</td></tr></table>`),
	}
	raw := ExtractFromPages(pages)
	if len(raw) != 3 {
		t.Fatalf("extracted %d tables, want 3", len(raw))
	}
	good := QualityFilter(raw)
	if len(good) != 2 {
		t.Fatalf("filtered to %d, want 2", len(good))
	}
	if !reflect.DeepEqual(good[0].Headers, []string{"make", "price"}) {
		t.Errorf("headers = %v", good[0].Headers)
	}
}

func TestQualityFilterRejectsRaggedAndHeaderless(t *testing.T) {
	raw := []RawTable{
		{Headers: []string{"a", "b"}, Rows: [][]string{{"1", "2"}, {"3"}}}, // ragged
		{Headers: nil, Rows: [][]string{{"1", "2"}}},                       // headerless
		{Headers: []string{"a", ""}, Rows: [][]string{{"1", "2"}}},         // empty header
		{Headers: []string{"a", "b"}, Rows: nil},                           // no data
		{Headers: []string{"a", "b"}, Rows: [][]string{{"1", "2"}}},        // good
	}
	good := QualityFilter(raw)
	if len(good) != 1 {
		t.Fatalf("filtered to %d, want 1", len(good))
	}
}

func buildCorpusACS() *ACSDb {
	a := &ACSDb{Freq: map[string]int{}, Pair: map[[2]string]int{}}
	// Car-ish schemas: make+model+price and maker+model+price never
	// co-occur ("make" vs "maker"), sharing context {model, price}.
	for i := 0; i < 20; i++ {
		a.AddSchema([]string{"make", "model", "price"})
	}
	for i := 0; i < 15; i++ {
		a.AddSchema([]string{"maker", "model", "price"})
	}
	for i := 0; i < 10; i++ {
		a.AddSchema([]string{"make", "model", "year"})
	}
	for i := 0; i < 5; i++ {
		a.AddSchema([]string{"city", "state", "zip"})
	}
	return a
}

func TestACSDbCounts(t *testing.T) {
	a := buildCorpusACS()
	if a.Schemas != 50 {
		t.Errorf("Schemas = %d", a.Schemas)
	}
	if a.Freq["make"] != 30 || a.Freq["maker"] != 15 {
		t.Errorf("Freq = %v", a.Freq)
	}
	if a.CoOccur("make", "model") != 30 || a.CoOccur("make", "maker") != 0 {
		t.Errorf("CoOccur wrong")
	}
	if a.CoOccur("model", "make") != 30 {
		t.Error("CoOccur not symmetric")
	}
}

func TestAddSchemaDedupes(t *testing.T) {
	a := &ACSDb{Freq: map[string]int{}, Pair: map[[2]string]int{}}
	a.AddSchema([]string{"x", "x", "y", ""})
	if a.Freq["x"] != 1 || a.Freq[""] != 0 {
		t.Errorf("Freq = %v", a.Freq)
	}
	if a.CoOccur("x", "y") != 1 {
		t.Error("pair missing")
	}
}

func TestSchemaAutocomplete(t *testing.T) {
	a := buildCorpusACS()
	got := a.SchemaAutocomplete([]string{"make"}, 3)
	if len(got) == 0 || got[0].Name != "model" {
		t.Fatalf("autocomplete(make) = %+v, want model first", got)
	}
	// given attrs are never suggested back
	for _, s := range got {
		if s.Name == "make" {
			t.Error("suggested the given attribute")
		}
	}
	if a.SchemaAutocomplete(nil, 3) != nil {
		t.Error("empty given should return nil")
	}
}

func TestSynonyms(t *testing.T) {
	a := buildCorpusACS()
	got := a.Synonyms("make", 3)
	if len(got) == 0 || got[0].Name != "maker" {
		t.Fatalf("Synonyms(make) = %+v, want maker first", got)
	}
	// model co-occurs with make constantly: not a synonym.
	for _, s := range got {
		if s.Name == "model" || s.Name == "price" {
			t.Errorf("co-occurring attr offered as synonym: %+v", s)
		}
	}
	if a.Synonyms("nosuch", 3) != nil {
		t.Error("unknown attr should return nil")
	}
}

func TestValueStore(t *testing.T) {
	v := NewValueStore()
	v.AddColumn("Make", []string{"ford", "honda", "ford"})
	v.AddColumn("make", []string{"toyota"})
	got := v.Values("MAKE", 10)
	if len(got) != 3 || got[0] != "ford" {
		t.Errorf("Values = %v", got)
	}
	if v.Values("nosuch", 5) != nil {
		t.Error("unknown attr should give nil")
	}
	if got := v.Values("make", 1); len(got) != 1 {
		t.Errorf("k-cap ignored: %v", got)
	}
}

func TestValueStoreFromTables(t *testing.T) {
	v := NewValueStore()
	v.AddTables([]RawTable{{
		Headers: []string{"city", "zip"},
		Rows:    [][]string{{"seattle", "98101"}, {"portland", "97201"}},
	}})
	cities := v.Values("city", 10)
	if len(cities) != 2 {
		t.Errorf("cities = %v", cities)
	}
}

func TestPropertiesOf(t *testing.T) {
	ts := []RawTable{
		{Headers: []string{"city", "state", "population"}, Rows: [][]string{{"seattle", "wa", "700000"}}},
		{Headers: []string{"city", "mayor"}, Rows: [][]string{{"seattle", "someone"}}},
		{Headers: []string{"dish", "cuisine"}, Rows: [][]string{{"tacos", "mexican"}}},
	}
	props := PropertiesOf(ts, "Seattle", 10)
	if len(props) == 0 || props[0].Name != "city" {
		t.Fatalf("props = %+v", props)
	}
	names := map[string]bool{}
	for _, p := range props {
		names[p.Name] = true
	}
	if !names["mayor"] || !names["population"] || names["cuisine"] {
		t.Errorf("properties wrong: %v", names)
	}
}

func TestSearchTablesHeaderBeatsCell(t *testing.T) {
	ts := []RawTable{
		{URL: "header-hit", Headers: []string{"price", "make"},
			Rows: [][]string{{"2500", "ford"}}},
		{URL: "cell-hit", Headers: []string{"a", "b"},
			Rows: [][]string{{"price", "x"}, {"y", "z"}}},
	}
	hits := SearchTables(ts, "price", 10)
	if len(hits) != 2 {
		t.Fatalf("hits = %d, want 2", len(hits))
	}
	if hits[0].Table.URL != "header-hit" {
		t.Errorf("header match should rank first: %+v", hits[0].Table.URL)
	}
	if hits[0].Score <= hits[1].Score {
		t.Error("header weight not applied")
	}
}

func TestSearchTablesMultiTerm(t *testing.T) {
	ts := []RawTable{
		{URL: "both", Headers: []string{"make", "price"}, Rows: [][]string{{"ford", "2500"}}},
		{URL: "one", Headers: []string{"make", "year"}, Rows: [][]string{{"ford", "1993"}}},
	}
	hits := SearchTables(ts, "make price", 10)
	if hits[0].Table.URL != "both" {
		t.Errorf("two-term match should win: %v", hits[0].Table.URL)
	}
}

func TestSearchTablesEdgeCases(t *testing.T) {
	ts := []RawTable{{Headers: []string{"a"}, Rows: [][]string{{"b"}}}}
	if got := SearchTables(ts, "", 5); got != nil {
		t.Error("empty query should return nil")
	}
	if got := SearchTables(ts, "the of", 5); got != nil {
		t.Error("stopword query should return nil")
	}
	if got := SearchTables(ts, "zzz", 5); len(got) != 0 {
		t.Error("no-match query should return empty")
	}
	if got := SearchTables(ts, "a", 0); got != nil {
		t.Error("k=0 should return nil")
	}
}

func TestSearchTablesRowCapPerTerm(t *testing.T) {
	// A row matching a term in several cells counts once.
	ts := []RawTable{{URL: "t", Headers: []string{"x", "y"},
		Rows: [][]string{{"ford", "ford"}}}}
	hits := SearchTables(ts, "ford", 1)
	if hits[0].Score != cellWeight {
		t.Errorf("score = %v, want %v", hits[0].Score, cellWeight)
	}
}
