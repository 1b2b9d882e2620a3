package engine

import (
	"context"
	"reflect"
	"strings"
	"testing"

	"deepweb/internal/index"
	"deepweb/internal/query"
)

// A document's row reads back byte for byte on every path it takes — a
// commit's chunk, Save, Load's docs body — through Doc, ForEach,
// ForEachRow and a filtered search's text fallback: empty fields,
// fields long enough for a multi-byte length prefix, non-ASCII text,
// and rows committed over several batches, one of which repeats a URL.
func TestRowsRoundTrip(t *testing.T) {
	long := strings.Repeat("x", 127) + "é" // 129 bytes: a two-byte length
	docs := []index.Doc{
		{URL: "http://rows.example/empty"},
		{URL: "http://rows.example/long", Title: long, Text: strings.Repeat("ford focus ", 40), Source: long},
		{URL: "http://rows.example/ünïcode", Title: "Straße café", Text: "ford 日本語 テキスト price 9000", Source: "форма"},
		{URL: "http://rows.example/" + strings.Repeat("p", 300), Title: "ford"},
	}
	e := New()
	batches := [][]index.Doc{docs[:2], {docs[2], docs[0], docs[2]}, docs[3:]}
	for _, batch := range batches {
		ps := make([]*index.Prepared, len(batch))
		for i, d := range batch {
			ps[i] = index.Prepare(d)
		}
		e.Index.AddPreparedBatch(ps, nil)
	}
	wantRows := rowsOf(t, e.Index)

	dir := t.TempDir()
	if err := e.Save(dir, nil); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(dir)
	if err != nil {
		t.Fatal(err)
	}
	for name, e := range map[string]*Engine{"built": e, "loaded": loaded} {
		ix := e.Index
		if ix.Len() != len(docs) {
			t.Fatalf("%s: %d documents, want %d", name, ix.Len(), len(docs))
		}
		for id, want := range docs {
			if got := ix.Doc(id); got != want {
				t.Errorf("%s: Doc(%d) = %+v, want %+v", name, id, got, want)
			}
		}
		var walked []index.Doc
		ix.ForEach(func(id int, d index.Doc, host string) {
			walked = append(walked, d)
			if host != "rows.example" {
				t.Errorf("%s: ForEach doc %d host %q", name, id, host)
			}
		})
		if !reflect.DeepEqual(walked, docs) {
			t.Errorf("%s: ForEach %+v, want %+v", name, walked, docs)
		}
		if rows := rowsOf(t, ix); !reflect.DeepEqual(rows, wantRows) {
			t.Errorf("%s: rows %q, want the committed %q", name, rows, wantRows)
		}
		// No document is annotated, so the predicate is decided by each
		// candidate's title and text: only doc 2 mentions a price.
		resp, err := e.Search(context.Background(), SearchRequest{Query: "ford", K: 10, Filters: []query.Predicate{mustPred(t, "price<10000")}})
		if err != nil {
			t.Fatal(err)
		}
		if len(resp.Results) != 1 || resp.Total != 1 {
			t.Fatalf("%s: filtered search: %d results of %d, want doc 2 alone", name, len(resp.Results), resp.Total)
		}
		if r := resp.Results[0]; r.DocID != 2 || r.URL != docs[2].URL || r.Title != docs[2].Title || r.Source != docs[2].Source {
			t.Errorf("%s: filtered search hit %+v, want doc 2 %+v", name, r, docs[2])
		}
	}
}

// rowsOf returns every row of ix, in id order, as ForEachRow hands
// them out, and checks that each decodes to the document Doc returns.
func rowsOf(t *testing.T, ix *index.Index) []string {
	t.Helper()
	var rows []string
	if err := ix.ForEachRow(func(row string) error {
		rows = append(rows, row)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	for id, row := range rows {
		if d, _, n := index.ParseRow(row); n != len(row) || d != ix.Doc(id) {
			t.Errorf("row %d %q decodes to %+v in %d of its bytes", id, row, d, n)
		}
	}
	return rows
}
