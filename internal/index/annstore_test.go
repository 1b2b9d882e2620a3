package index

import (
	"context"
	"errors"
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"
)

// Two equally long values of one attribute, both in the query: the
// mention rule is total (longest, then earliest in the query), so the
// choice — and with it every score bit and the order — is the same on
// every run, and follows the query's word order, not the dictionary's.
func TestAnnotatedEqualLengthValuesAreBitStable(t *testing.T) {
	ix := NewSharded(4)
	makes := []string{"ford", "fiat", "audi", "saab"}
	for i := 0; i < 120; i++ {
		mk := makes[i%len(makes)]
		id, _ := ix.Add(Doc{
			URL:   fmt.Sprintf("http://cars.example/%d", i),
			Title: fmt.Sprintf("%s listing %d", mk, i),
			Text:  fmt.Sprintf("used ford fiat audi saab wagon %d", i%9),
		})
		ix.Annotate(id, map[string]string{"make": mk})
	}
	for _, c := range []struct{ q, boosted string }{
		{"used fiat ford wagon", "fiat"},
		{"used ford fiat wagon", "ford"},
		{"saab audi fiat ford", "saab"},
	} {
		want, _, err := ix.AnnotatedTopK(context.Background(), c.q, 50, 0, nil)
		if err != nil || len(want) != 50 {
			t.Fatalf("%q: %d hits, err %v", c.q, len(want), err)
		}
		if got := ix.AnnotationsOf(want[0].DocID)["make"]; got != c.boosted {
			t.Fatalf("%q: top hit is a %s page, want the earliest-mentioned make %s boosted", c.q, got, c.boosted)
		}
		for run := 0; run < 300; run++ {
			got, _, _ := ix.AnnotatedTopK(context.Background(), c.q, 50, 0, nil)
			for i := range want {
				if got[i].DocID != want[i].DocID || math.Float64bits(got[i].Score) != math.Float64bits(want[i].Score) {
					t.Fatalf("%q run %d rank %d: doc %d score %x, first run had doc %d score %x",
						c.q, run, i, got[i].DocID, math.Float64bits(got[i].Score), want[i].DocID, math.Float64bits(want[i].Score))
				}
			}
		}
	}
}

// Annotations are written once, in ascending id order: a second
// annotation of a document, an id below an annotated one and an id
// outside the index each panic, naming the id, and intern nothing; a
// map with no pair Annotate keeps is no annotation. A commit onto a
// loaded, annotated index annotates what it adds.
func TestAnnotateIsAppendOnly(t *testing.T) {
	ix := New()
	for i := range 5 {
		ix.Add(Doc{URL: fmt.Sprintf("http://cars.example/%d", i), Text: "used ford"})
	}
	ix.Annotate(0, map[string]string{"make": "ford"})
	ix.Annotate(1, map[string]string{"": "audi", "make": " "})
	ix.Annotate(2, map[string]string{"make": "saab"})
	b := NewAnnBuilder()
	b.Annotate(3, map[string]string{"make": "ford"})
	audi := map[string]string{"make": "audi", "city": "oslo"}
	for _, tc := range []struct {
		name, want string
		call       func()
	}{
		{"second annotation", "doc 2: documents are annotated once each, in ascending id order, and the highest annotated id is 2", func() { ix.Annotate(2, audi) }},
		{"id below an annotated one", "doc 1: documents are annotated once each, in ascending id order, and the highest annotated id is 2", func() { ix.Annotate(1, audi) }},
		{"id past the index", "doc 5: no such document among 5", func() { ix.Annotate(5, audi) }},
		{"negative id", "doc -1: no such document among 5", func() { ix.Annotate(-1, audi) }},
		{"builder: second annotation", "doc 3: documents are annotated once each, in ascending id order, and the highest annotated id is 3", func() { b.Annotate(3, audi) }},
		{"builder: id below an annotated one", "doc 0: documents are annotated once each, in ascending id order, and the highest annotated id is 3", func() { b.Annotate(0, audi) }},
	} {
		func() {
			defer func() {
				if r := recover(); r == nil || !strings.Contains(fmt.Sprint(r), tc.want) {
					t.Errorf("%s: recovered %v, want a panic mentioning %q", tc.name, r, tc.want)
				}
			}()
			tc.call()
		}()
	}
	if cols, _ := ix.ExportAnnotations(); len(cols) != 1 || string(cols[0].Text) != "fordsaab" {
		t.Fatalf("refused annotations left the dictionaries %+v", cols)
	}
	if cols, _ := b.Tables(); len(cols) != 1 || string(cols[0].Text) != "ford" {
		t.Fatalf("refused annotations left the builder's dictionaries %+v", cols)
	}
	ix.Annotate(4, audi)

	docs, lens := exportDocs(ix)
	loaded := NewSharded(2)
	if err := loaded.ImportDocs(docs, lens, nil); err != nil {
		t.Fatal(err)
	}
	if err := loaded.InstallAnnotations(exportTables(ix)); err != nil {
		t.Fatal(err)
	}
	ps := []*Prepared{Prepare(docs[0]), Prepare(Doc{URL: "http://cars.example/5", Text: "used saab"})}
	ids, added := loaded.AddPreparedBatch(ps, []map[string]string{{"make": "fiat"}, {"make": "saab"}})
	if ids[0] != 0 || added[0] || ids[1] != 5 || !added[1] {
		t.Fatalf("batch onto the loaded index: ids %v added %v", ids, added)
	}
	for id, want := range []map[string]string{{"make": "ford"}, nil, {"make": "saab"}, nil, audi, {"make": "saab"}} {
		if got := loaded.AnnotationsOf(id); !reflect.DeepEqual(got, want) {
			t.Errorf("loaded doc %d annotated %v, want %v", id, got, want)
		}
	}
}

// The filtered selection loop is the one place a query can run long,
// so it must notice cancellation — and hand the pooled accumulator back
// clean, undrained entries included.
func TestTopKFilteredScanIsCancelable(t *testing.T) {
	ix := NewSharded(4)
	const n = 3 * keepPollEvery
	for i := 0; i < n; i++ {
		ix.Add(Doc{URL: fmt.Sprintf("http://h.example/%d", i), Text: fmt.Sprintf("ford focus %d", i%13)})
	}
	const q = "ford focus 7"
	want := search(ix, q, 10)

	ctx, cancel := context.WithCancel(context.Background())
	calls := 0
	hits, total, err := ix.TopK(ctx, q, 10, 0, &Filter{Match: func(int) bool {
		if calls++; calls == 100 {
			cancel()
		}
		return true
	}})
	if !errors.Is(err, context.Canceled) || hits != nil || total != 0 {
		t.Fatalf("canceled filtered TopK = (%d hits, total %d, %v), want (nil, 0, context.Canceled)", len(hits), total, err)
	}
	if calls >= keepPollEvery {
		t.Fatalf("filter ran %d times after a cancel at 100; the loop polls every %d", calls, keepPollEvery)
	}
	for i := 0; i < 20; i++ {
		got, tot, err := ix.TopK(context.Background(), q, 10, 0, nil)
		if err != nil || tot != n || !reflect.DeepEqual(got, want) {
			t.Fatalf("query %d after the canceled scan diverged (total %d, err %v): the accumulator went back dirty", i, tot, err)
		}
	}
}

// A dictionary's end offsets are 32 bits: interning text past 4 GiB
// panics with the attribute's name instead of wrapping an offset.
func TestDictionaryEndOffsetPast4GiBPanics(t *testing.T) {
	if got := endOf("make", math.MaxUint32); got != math.MaxUint32 {
		t.Fatalf("endOf(MaxUint32) = %d", got)
	}
	defer func() {
		if r := recover(); r == nil || !strings.Contains(fmt.Sprint(r), `attribute "make"`) {
			t.Fatalf("endOf past 4 GiB recovered %v, want a panic naming the attribute", r)
		}
	}()
	endOf("make", math.MaxUint32+1)
}

// InstallAnnotations refuses end offsets no builder writes — one that
// leaves a value empty, descends, passes the text, or stops short of
// it — before it reads a value through them.
func TestInstallRejectsBadEndOffsets(t *testing.T) {
	schemas := []AnnSchema{{Attrs: []uint32{0}, Codes: [][]uint32{{0}}, Docs: []int32{0}}}
	for name, tc := range map[string]struct {
		col  AnnColumn
		want string
	}{
		"empty first value":  {AnnColumn{Attr: "make", Text: []byte("ford"), Ends: []uint32{0, 4}}, "value 0 ends at 0"},
		"empty later value":  {AnnColumn{Attr: "make", Text: []byte("ford"), Ends: []uint32{4, 4}}, "value 1 ends at 4, after 4"},
		"descending":         {AnnColumn{Attr: "make", Text: []byte("fordsaab"), Ends: []uint32{8, 4}}, "value 1 ends at 4, after 8"},
		"past the text":      {AnnColumn{Attr: "make", Text: []byte("ford"), Ends: []uint32{4, 9}}, "value 1 ends at 9, after 4, in 4 bytes"},
		"short of the text":  {AnnColumn{Attr: "make", Text: []byte("fordsaab"), Ends: []uint32{4}}, "4 bytes past its last value"},
		"text with no value": {AnnColumn{Attr: "make", Text: []byte("ford")}, "4 bytes past its last value"},
	} {
		ix := New()
		err := ix.InstallAnnotations([]AnnColumn{tc.col}, schemas, 1)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: InstallAnnotations = %v, want an error mentioning %q", name, err, tc.want)
		}
		if ix.AnnotationsOf(0) != nil {
			t.Errorf("%s: refused tables left doc 0 annotated", name)
		}
	}
}
