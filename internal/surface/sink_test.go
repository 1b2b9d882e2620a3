package surface

import (
	"context"
	"reflect"
	"testing"

	"deepweb/internal/index"
)

// The sink every surfaced site's documents pass through commits what
// one Builder.AddPreparedBatch of the same documents commits: a duplicate
// URL inside the batch, or of a document indexed before the pass, adds
// nothing, and the first occurrence keeps its annotations. The engine's
// oracle checks AddPreparedBatch against its model.
func TestStagedSinkCommitsAsAddPreparedBatch(t *testing.T) {
	docs := []index.Doc{
		{URL: "http://cars.example/1", Title: "ford", Text: "used ford focus", Source: "cars.example/search"},
		{URL: "http://cars.example/1", Title: "fiat", Text: "used fiat panda", Source: "cars.example/search"},
		{URL: "http://cars.example/0", Text: "crawled before surfacing"},
		{URL: "http://cars.example/2", Title: "audi", Text: "used audi wagon", Source: "cars.example/search"},
	}
	anns := []map[string]string{{"make": "ford"}, {"make": "fiat"}, {"make": "saab"}, {"make": "audi", "year": "2004"}}
	crawled := func() *index.Builder {
		ix := index.New()
		ix.Add(index.Doc{URL: "http://cars.example/0", Text: "the surface web"})
		return ix
	}

	sunk := crawled()
	sink := newStagedSink(sunk)
	for i, d := range docs {
		if id, added := sink.Add(d); added {
			sink.Annotate(id, anns[i])
		}
	}
	if n := sink.commit(); n != 2 {
		t.Fatalf("sink committed %d new documents, want 2", n)
	}
	batched := crawled()
	ps := make([]*index.Prepared, len(docs))
	for i, d := range docs {
		ps[i] = index.Prepare(d)
	}
	batched.AddPreparedBatch(ps, anns)
	viaSink, direct := sunk.Freeze(), batched.Freeze()

	rowsOf := func(ix *index.Index) (rows []string) {
		ix.ForEachRow(func(row string) error {
			rows = append(rows, row)
			return nil
		})
		return rows
	}
	gotRows, wantRows := rowsOf(viaSink), rowsOf(direct)
	if !reflect.DeepEqual(gotRows, wantRows) {
		t.Fatalf("sink committed rows %q, AddPreparedBatch %q", gotRows, wantRows)
	}
	for id := range gotRows {
		if got, want := viaSink.AnnotationsOf(id), direct.AnnotationsOf(id); !reflect.DeepEqual(got, want) {
			t.Errorf("doc %d: sink annotated %v, AddPreparedBatch %v", id, got, want)
		}
	}
	for _, q := range []string{"used ford", "audi 2004"} {
		got, _, _ := viaSink.AnnotatedTopK(context.Background(), q, 10, 0, nil)
		want, _, _ := direct.AnnotatedTopK(context.Background(), q, 10, 0, nil)
		if !reflect.DeepEqual(got, want) {
			t.Errorf("AnnotatedTopK(%q): sink %v, AddPreparedBatch %v", q, got, want)
		}
	}
}
