package index

import (
	"context"
	"errors"
	"fmt"
	"math"
	"reflect"
	"slices"
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

// Re-annotating a document must not leak vocabulary support: an
// overwrite releases the old value, a repeat is a no-op, so once the
// last document carrying a value is annotated away from it the value
// stops steering AnnotatedTopK.
func TestReannotateReleasesSupport(t *testing.T) {
	for _, second := range []string{"honda", "ford"} { // overwrite, repeat
		ix := New()
		id, _ := ix.Add(Doc{URL: "civic", Text: "honda civic better mileage than the ford focus"})
		ix.Annotate(id, map[string]string{"make": "honda"})
		ix.Annotate(id, map[string]string{"make": second})
		ix.Add(Doc{URL: "blog", Text: "my old ford focus and honda civic road trip"})
		other, _ := ix.Add(Doc{URL: "lot", Text: "honda civic and ford focus on the lot"})
		ix.Annotate(other, map[string]string{"lot": "north"})

		if got := ix.AnnotationsOf(id); !reflect.DeepEqual(got, map[string]string{"make": second}) {
			t.Fatalf("second=%s: annotations %v after re-annotation", second, got)
		}
		if second != "honda" {
			// "honda" was overwritten on its only document: it is out
			// of the vocabulary already, before any delete.
			if m := ix.ann.valuesMentioned("honda civic"); len(m) != 0 {
				t.Fatalf("second=%s: overwritten value still mentioned: %+v", second, m)
			}
		}
		ix.Annotate(id, map[string]string{"make": "saab"})
		for _, q := range []string{"honda civic", "ford focus"} {
			if m := ix.ann.valuesMentioned(q); len(m) != 0 {
				t.Fatalf("second=%s: %q still mentions %+v after its last carrier was re-annotated", second, q, m)
			}
			plain, ann := search(ix, q, 5), annotatedSearch(ix, q, 5)
			if !reflect.DeepEqual(plain, ann) {
				t.Fatalf("second=%s: stale vocabulary still adjusts %q:\n plain %+v\n ann   %+v", second, q, plain, ann)
			}
		}
	}
}

// Annotations survive what moves them: a schema move when a document
// gains an attribute, and the rewrite that drops the dead slots moves
// leave behind. After every write the tables hold no more dead slots
// than live ones and every value's support equals the live slots
// carrying it; after a rewrite each table's slots follow doc ids.
func TestAnnotationRowsSurviveChurn(t *testing.T) {
	ix := NewSharded(4)
	var want []map[string]string // by doc id
	st := &ix.ann
	check := func(when string) {
		t.Helper()
		if ix.Len() != len(want) {
			t.Fatalf("%s: %d docs, want %d", when, ix.Len(), len(want))
		}
		for id, w := range want {
			if got := ix.AnnotationsOf(id); !reflect.DeepEqual(got, w) {
				t.Fatalf("%s: doc %d annotations %v, want %v", when, id, got, w)
			}
		}
		if st.dead > st.slots-st.dead {
			t.Fatalf("%s: tables hold %d dead slots against %d live", when, st.dead, st.slots-st.dead)
		}
		// Every slot is dead or held by the document that names it, and
		// support equals the live slots, value by value.
		slots, dead, live := 0, 0, 0
		counts := map[annCell]int32{}
		for s, sch := range st.schemas {
			slots += len(sch.Docs)
			for slot, id := range sch.Docs {
				if id < 0 {
					dead++
					continue
				}
				if st.schema[id] != uint32(s) || st.slot[id] != uint32(slot) {
					t.Fatalf("%s: schema %d slot %d holds doc %d, which names schema %d slot %d", when, s, slot, id, st.schema[id], st.slot[id])
				}
				live++
				for i, a := range sch.Attrs {
					counts[annCell{a, sch.Codes[i][slot]}]++
				}
			}
		}
		if slots != st.slots || dead != st.dead || live != len(want) {
			t.Fatalf("%s: %d slots, %d dead, %d live; the store counts %d and %d, %d documents are annotated", when, slots, dead, live, st.slots, st.dead, len(want))
		}
		for a, col := range st.cols {
			for c, sup := range col.support {
				if n := counts[annCell{uint32(a), uint32(c)}]; sup != n {
					t.Fatalf("%s: %s=%q support %d, live slots carry it %d times", when, col.Attr, col.Value(uint32(c)), sup, n)
				}
			}
		}
	}
	inDocIDOrder := func(when string) {
		t.Helper()
		if st.dead != 0 {
			t.Fatalf("%s: %d dead slots after a rewrite", when, st.dead)
		}
		for s, sch := range st.schemas {
			if !slices.IsSorted(sch.Docs) {
				t.Fatalf("%s: schema %d lays its slots out as docs %v, not in doc-id order", when, s, sch.Docs)
			}
		}
	}

	const n = 400
	for i := 0; i < n; i++ {
		id, _ := ix.Add(Doc{URL: fmt.Sprintf("http://x.example/%03d", i), Text: fmt.Sprintf("ford focus %d", i)})
		anns := map[string]string{"make": []string{"ford", "honda"}[i%2], "year": fmt.Sprint(1990 + i%20)}
		if i%5 == 0 {
			anns = map[string]string{"price": fmt.Sprint(1000 * (i % 7))}
		}
		ix.Annotate(id, anns)
		want = append(want, anns)
		check(fmt.Sprintf("annotate %d", id))
	}
	// Move every third document to a grown schema — from both starting
	// schemas — and overwrite values in place on others.
	for id := 0; id < n; id++ {
		switch id % 3 {
		case 0:
			ix.Annotate(id, map[string]string{"city": "seattle", "year": "2001"})
			want[id]["city"], want[id]["year"] = "seattle", "2001"
		case 1:
			ix.Annotate(id, map[string]string{"year": "1999"})
			want[id]["year"] = "1999"
		}
		check(fmt.Sprintf("re-annotate %d", id))
	}
	// Move every document once more, enough to force rewrites.
	rewrites := 0
	for id := n - 1; id >= 0; id-- {
		dead := st.dead
		ix.Annotate(id, map[string]string{"color": fmt.Sprint("red ", id%4)})
		want[id]["color"] = fmt.Sprint("red ", id%4)
		if st.dead < dead {
			rewrites++
			inDocIDOrder(fmt.Sprintf("move %d", id))
		}
		check(fmt.Sprintf("move %d", id))
	}
	if rewrites == 0 {
		t.Fatal("no schema move rewrote the tables")
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
