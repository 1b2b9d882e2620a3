package index

import (
	"fmt"
	"testing"
)

// smallCorpus indexes a deterministic toy corpus with annotations.
func smallCorpus() *Index {
	ix := New()
	for i := 0; i < 40; i++ {
		id, _ := ix.Add(Doc{
			URL:    fmt.Sprintf("http://cars.example/p%d", i),
			Title:  fmt.Sprintf("used car %d ford focus", i),
			Text:   fmt.Sprintf("great ford focus number %d in seattle, price %d", i, 1000+i),
			Source: fmt.Sprintf("form-%d", i%3),
		})
		if i%2 == 0 {
			ix.Annotate(id, map[string]string{"make": "ford", "model": "focus"})
		}
	}
	return ix
}

// tablesOf builds the annotation tables a snapshot of src holds: each
// document's annotations, in doc-id order, through AnnBuilder.
func tablesOf(src *Index) ([]AnnColumn, []AnnSchema, int) {
	b := NewAnnBuilder()
	for id := range src.Len() {
		b.Annotate(id, src.AnnotationsOf(id))
	}
	cols, schemas := b.Tables()
	return cols, schemas, src.Len()
}

// ExportTerms hands out copies: mutating them must not corrupt the
// index, and terms arrive sorted for deterministic segment bytes.
func TestExportTermsIsolatedAndSorted(t *testing.T) {
	ix := smallCorpus()
	terms := ix.ExportTerms()
	for i := range terms {
		if i > 0 && terms[i-1].Term >= terms[i].Term {
			t.Fatalf("terms out of order: %q then %q", terms[i-1].Term, terms[i].Term)
		}
		for j := range terms[i].Postings {
			terms[i].Postings[j] = Posting{Doc: -1, TF: -1}
		}
	}
	if got := search(ix, "ford focus", 5); len(got) == 0 {
		t.Fatal("index corrupted by mutating exported postings")
	}
}

// The import surface refuses the states that would corrupt an index
// silently.
func TestImportRejectsBadState(t *testing.T) {
	if err := NewSharded(2).ImportDocs([]Doc{{URL: "u"}}, []int{1, 2}, nil); err == nil {
		t.Error("mismatched docs/lens accepted")
	}
	if err := NewSharded(2).ImportDocs([]Doc{{URL: "u"}}, []int{1}, []bool{false}); err == nil {
		t.Error("deleted-document flags accepted")
	}
	ix := smallCorpus()
	docs, lens := ix.ExportDocs()
	if err := ix.ImportDocs(docs, lens, nil); err == nil {
		t.Error("import into non-empty index accepted")
	}
	if err := NewSharded(2).ImportDocs([]Doc{{URL: "u"}, {URL: "u"}}, []int{1, 1}, nil); err == nil {
		t.Error("duplicate URL accepted")
	}
	fresh := NewSharded(2)
	tp := []TermPostings{{Term: "dup", Postings: []Posting{{Doc: 0, TF: 1}}}}
	if err := fresh.ImportTerms(tp); err != nil {
		t.Fatal(err)
	}
	if err := fresh.ImportTerms(tp); err == nil {
		t.Error("double term import accepted")
	}
	if err := ix.InstallAnnotations(tablesOf(smallCorpus())); err == nil {
		t.Error("annotation install into an annotated index accepted")
	}
	// Tables that fail a check install nothing.
	fresh = NewSharded(2)
	cols, schemas, n := tablesOf(smallCorpus())
	schemas[0].Codes[0][1] = uint32(len(cols[schemas[0].Attrs[0]].Values))
	if err := fresh.InstallAnnotations(cols, schemas, n); err == nil || fresh.AnnotationsOf(0) != nil {
		t.Errorf("annotation install with a code past its dictionary: error %v, doc 0 annotated %v", err, fresh.AnnotationsOf(0))
	}
}

// Version moves on every write-locked section — the snapshot imports
// included, which the engine's oracle never runs under a cache — and a
// read leaves it alone.
func TestVersionMovesOnEveryWrite(t *testing.T) {
	src := smallCorpus()
	docs, lens := src.ExportDocs()
	ix := NewSharded(4)
	writes := []func() error{
		func() error { return ix.ImportDocs(docs, lens, nil) },
		func() error { return ix.ImportTerms(src.ExportTerms()) },
		func() error { return ix.InstallAnnotations(tablesOf(src)) },
		func() error { ix.Add(Doc{URL: "http://new.example/", Text: "ford"}); return nil },
		func() error { ix.Annotate(0, map[string]string{"make": "saab"}); return nil },
	}
	for i, write := range writes {
		before := ix.Version()
		search(ix, "ford", 5)
		ix.Len()
		if ix.Version() != before {
			t.Fatalf("write %d: a read moved the version", i)
		}
		if err := write(); err != nil {
			t.Fatal(err)
		}
		if ix.Version() <= before {
			t.Fatalf("write %d left the version at %d", i, before)
		}
	}
}
