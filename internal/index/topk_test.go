package index

import (
	"context"
	"fmt"
	"net/url"
	"reflect"
	"strings"
	"testing"
)

// topkCorpus builds a small mixed-host corpus with enough shared terms
// that queries match many documents.
func topkCorpus(t testing.TB, shards int) *Builder {
	t.Helper()
	b := NewSharded(shards)
	for i := 0; i < 60; i++ {
		host := fmt.Sprintf("h%d.example", i%3)
		b.Add(Doc{
			URL:   fmt.Sprintf("http://%s/doc/%d", host, i),
			Title: fmt.Sprintf("ford focus listing %d", i),
			Text:  fmt.Sprintf("a used ford focus number %d for sale in seattle", i),
		})
	}
	return b
}

// The host restriction limits both the page and the total, and keeps
// the relative order of the full ranking.
func TestTopKFilter(t *testing.T) {
	ix := topkCorpus(t, 4).Freeze()
	q := "ford focus"
	hits, total, err := ix.TopK(context.Background(), q, 1000, 0, &Filter{Host: "h1.example"})
	if err != nil {
		t.Fatal(err)
	}
	if total != 20 || len(hits) != 20 {
		t.Fatalf("filtered total=%d hits=%d, want 20/20", total, len(hits))
	}
	var fromFull []Result
	for _, h := range search(ix, q, 1000) {
		if u, err := url.Parse(h.URL); err == nil && u.Host == "h1.example" {
			fromFull = append(fromFull, h)
		}
	}
	if !reflect.DeepEqual(hits, fromFull) {
		t.Fatal("filtered ranking disagrees with post-filtered full ranking")
	}
	// A host the index has never seen matches nothing.
	if hits, total, err := ix.TopK(context.Background(), q, 10, 0, &Filter{Host: "nosuch.example"}); err != nil || total != 0 || len(hits) != 0 {
		t.Fatalf("unknown host: total=%d hits=%d err=%v, want an empty page", total, len(hits), err)
	}
}

// Host and Match compose: the page and the total are the intersection,
// and Match sees each candidate's own id, and through the index's
// views its annotations and document.
func TestTopKFilterHostAndMatch(t *testing.T) {
	b := topkCorpus(t, 4)
	for id := 0; id < 60; id++ {
		b.Annotate(id, map[string]string{"n": fmt.Sprint(id)})
	}
	ix := b.Freeze()
	f := &Filter{Host: "h1.example", Match: func(id int) bool {
		tables, rows := ix.AnnotationTables(), ix.RowView()
		d := rows.Doc(id)
		sch, slot := tables.Schemas[tables.Schema[id]], tables.Slot[id]
		if len(sch.Attrs) != 1 {
			t.Fatalf("schema of %s has %d columns, want 1", d.URL, len(sch.Attrs))
		}
		n := tables.Column(sch.Attrs[0]).Value(sch.Codes[0][slot])
		// The corpus numbers URLs by insertion order, like the
		// annotation, so a candidate's id, annotation and document
		// must agree.
		if !strings.HasSuffix(d.URL, "/doc/"+n) || n != fmt.Sprint(id) {
			t.Fatalf("Match got doc %d, annotation n=%s, document %s", id, n, d.URL)
		}
		if u, _ := url.Parse(d.URL); u.Host != "h1.example" {
			t.Fatalf("Match saw %s, off the filtered host", d.URL)
		}
		return strings.HasSuffix(d.URL, "0") || strings.HasSuffix(d.URL, "5")
	}}
	hits, total, err := ix.TopK(context.Background(), "ford focus", 1000, 0, f)
	if err != nil {
		t.Fatal(err)
	}
	var want []Result
	for _, h := range search(ix, "ford focus", 1000) {
		if u, _ := url.Parse(h.URL); u.Host == "h1.example" && (strings.HasSuffix(h.URL, "0") || strings.HasSuffix(h.URL, "5")) {
			want = append(want, h)
		}
	}
	if len(want) == 0 || total != len(want) || !reflect.DeepEqual(hits, want) {
		t.Fatalf("Host+Match total=%d hits=%d, want the %d hits of both", total, len(hits), len(want))
	}
}

// A Filter's Schema is asked once per schema a scan meets, on its
// first candidate past the host check; a candidate of a schema it
// answers AdmitAll or RejectAll is decided without Match, and only a
// judge-each schema's candidates reach Match. The page and the total
// are what Match alone would give with those verdicts.
func TestTopKFilterSchemaVerdicts(t *testing.T) {
	b := topkCorpus(t, 4)
	// Documents 0-19 have no annotations (schema 0); of the rest, even
	// ids are schema 1 and odd ids schema 2.
	for id := 20; id < 60; id++ {
		b.Annotate(id, map[string]string{[]string{"make", "city"}[id%2]: "x"})
	}
	ix := b.Freeze()
	tables := ix.AnnotationTables()
	verdicts := map[uint32]Verdict{0: JudgeEach, tables.Schema[20]: AdmitAll, tables.Schema[21]: RejectAll}
	asked := map[uint32]int{}
	f := &Filter{
		Host: "h1.example",
		Schema: func(s uint32) Verdict {
			asked[s]++
			return verdicts[s]
		},
		Match: func(id int) bool {
			if id >= 20 {
				t.Fatalf("Match called for doc %d, of a decided schema", id)
			}
			return id%2 == 0
		},
	}
	hits, total, err := ix.TopK(context.Background(), "ford focus", 1000, 0, f)
	if err != nil {
		t.Fatal(err)
	}
	if want := map[uint32]int{0: 1, tables.Schema[20]: 1, tables.Schema[21]: 1}; !reflect.DeepEqual(asked, want) {
		t.Fatalf("Schema asked %v times by schema, want once each: %v", asked, want)
	}
	var want []Result
	for _, h := range search(ix, "ford focus", 1000) {
		// Schema 1 (even ids past 19) admits all, Match the even ids below.
		if u, _ := url.Parse(h.URL); u.Host == "h1.example" && h.DocID%2 == 0 {
			want = append(want, h)
		}
	}
	if len(want) == 0 || total != len(want) || !reflect.DeepEqual(hits, want) {
		t.Fatalf("total=%d hits=%d, want the %d hits of the verdicts and Match", total, len(hits), len(want))
	}
}

// A canceled context aborts scoring with its error — and must leave
// the pooled accumulator clean, so the next query on the same scratch
// is unpolluted.
func TestTopKCanceledContext(t *testing.T) {
	ix := topkCorpus(t, 4).Freeze()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	hits, total, err := ix.TopK(ctx, "ford focus seattle", 10, 0, nil)
	if err == nil || hits != nil || total != 0 {
		t.Fatalf("canceled TopK = (%v, %d, %v), want (nil, 0, ctx.Err())", hits, total, err)
	}
	want := search(ix, "ford focus seattle", 10)
	for i := 0; i < 20; i++ {
		got, _, err := ix.TopK(context.Background(), "ford focus seattle", 10, 0, nil)
		if err != nil || !reflect.DeepEqual(got, want) {
			t.Fatalf("query %d after canceled query diverged (err=%v)", i, err)
		}
	}
}
