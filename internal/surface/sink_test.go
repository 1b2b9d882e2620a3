package surface

import (
	"context"
	"reflect"
	"testing"

	"deepweb/internal/index"
)

// The sink every surfaced site's documents pass through commits what
// one Index.AddPreparedBatch of the same documents commits: a duplicate
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
	crawled := func() *index.Index {
		ix := index.New()
		ix.Add(index.Doc{URL: "http://cars.example/0", Text: "the surface web"})
		return ix
	}

	viaSink := crawled()
	sink := newStagedSink(viaSink)
	for i, d := range docs {
		if id, added := sink.Add(d); added {
			sink.Annotate(id, anns[i])
		}
	}
	if n := sink.commit(); n != 2 {
		t.Fatalf("sink committed %d new documents, want 2", n)
	}
	direct := crawled()
	ps := make([]*index.Prepared, len(docs))
	for i, d := range docs {
		ps[i] = index.Prepare(d)
	}
	direct.AddPreparedBatch(ps, anns)

	gotDocs, gotLens := viaSink.ExportDocs()
	wantDocs, wantLens := direct.ExportDocs()
	if !reflect.DeepEqual(gotDocs, wantDocs) || !reflect.DeepEqual(gotLens, wantLens) {
		t.Fatalf("sink committed %+v, AddPreparedBatch %+v", gotDocs, wantDocs)
	}
	for id := range gotDocs {
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
