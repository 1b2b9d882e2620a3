package index

import (
	"fmt"
	"math/rand/v2"
	"reflect"
	"slices"
	"strings"
	"testing"
)

// smallCorpus indexes a deterministic toy corpus with annotations.
func smallCorpus() *Builder {
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

// ExportTerms hands out the index's own lists, clipped: a later commit
// to the builder does not change what an exported list or the reader
// holds, an append to an exported list does not change the index, and
// terms arrive sorted for deterministic segment bytes.
func TestExportTermsIsolatedAndSorted(t *testing.T) {
	b := smallCorpus()
	ix := b.Freeze()
	exported := ix.ExportTerms()
	for i := range exported {
		if i > 0 && exported[i-1].Term >= exported[i].Term {
			t.Fatalf("terms out of order: %q then %q", exported[i-1].Term, exported[i].Term)
		}
	}
	held := termPairs(exported)

	// These commits append to lists past the exported ends, into spare
	// capacity the exports share; 300 "ford"s widen that list's tfs.
	for i := range 8 {
		b.Add(Doc{URL: fmt.Sprintf("http://cars.example/late%d", i), Text: "ford focus in seattle"})
	}
	b.Add(Doc{URL: "http://cars.example/loud", Text: strings.Repeat("ford ", 300)})
	if got := termPairs(exported); !reflect.DeepEqual(got, held) {
		t.Fatal("a commit changed an exported list")
	}
	if got := termPairs(ix.ExportTerms()); !reflect.DeepEqual(got, held) {
		t.Fatal("a commit changed the frozen reader's lists")
	}

	ix = b.Freeze()
	committed := termPairs(ix.ExportTerms())
	for i := range exported {
		exported[i].Postings.Append(1000, 1)
		exported[i].Postings.Append(1001, 256)
	}
	if got := termPairs(b.Freeze().ExportTerms()); !reflect.DeepEqual(got, committed) {
		t.Fatal("an append to an exported list changed the index")
	}
	if got := search(ix, "ford focus", 5); len(got) == 0 {
		t.Fatal("index corrupted by appending to exported postings")
	}
}

// termPairs copies each term's postings out as doc id, tf pairs.
func termPairs(terms []TermPostings) map[string][]int32 {
	out := make(map[string][]int32, len(terms))
	for _, tp := range terms {
		out[tp.Term] = pairsOf(tp.Postings)
	}
	return out
}

// The import surface refuses the states that would corrupt an index
// silently.
func TestImportRejectsBadState(t *testing.T) {
	if err := NewSharded(2).ImportDocs([]Doc{{URL: "u"}}, []int32{1, 2}, nil); err == nil {
		t.Error("mismatched docs/lens accepted")
	}
	if err := NewSharded(2).ImportDocs([]Doc{{URL: "u"}}, []int32{1}, []bool{false}); err == nil {
		t.Error("deleted-document flags accepted")
	}
	ix := smallCorpus()
	docs, lens := exportDocs(ix.Freeze())
	if err := ix.ImportDocs(docs, lens, nil); err == nil {
		t.Error("import into non-empty index accepted")
	}
	if err := NewSharded(2).ImportDocs([]Doc{{URL: "u"}, {URL: "u"}}, []int32{1, 1}, nil); err == nil {
		t.Error("duplicate URL accepted")
	}
	fresh := NewSharded(2)
	tp := []TermPostings{{Term: "dup", Postings: postingsOf(0, 1)}}
	if err := NewSharded(2).ImportTerms(tp, tp); err == nil {
		t.Error("term in two segments of one import accepted")
	}
	if err := fresh.ImportTerms(tp); err != nil {
		t.Fatal(err)
	}
	if err := fresh.ImportTerms(tp); err == nil {
		t.Error("double term import accepted")
	}
	if err := ix.InstallAnnotations(exportTables(smallCorpus().Freeze())); err == nil {
		t.Error("annotation install into an annotated index accepted")
	}
	// Tables that fail a check install nothing.
	fresh = NewSharded(2)
	cols, schemas, n := exportTables(smallCorpus().Freeze())
	schemas[0].Codes[0][1] = uint32(len(cols[schemas[0].Attrs[0]].Ends))
	if err := fresh.InstallAnnotations(cols, schemas, n); err == nil || fresh.Freeze().AnnotationsOf(0) != nil {
		t.Errorf("annotation install with a code past its dictionary: error %v, doc 0 annotated %v", err, fresh.Freeze().AnnotationsOf(0))
	}
}

// hasEqual finds two equal hashes wherever they sit — in one top-byte
// bucket or across the radix passes — and never reports distinct ones
// as equal.
func TestHasEqual(t *testing.T) {
	spread := func(n int, f func(i int) uint64) []uint64 {
		hs := make([]uint64, n)
		for i := range hs {
			hs[i] = f(i)
		}
		return hs
	}
	// mix spreads i over all eight bytes.
	mix := func(i int) uint64 { return uint64(i+1) * 0x9e3779b97f4a7c15 }
	withPair := func(hs []uint64, i, j int) []uint64 { hs[j] = hs[i]; return hs }
	for _, tc := range []struct {
		name string
		hs   []uint64
		want bool
	}{
		{"empty", nil, false},
		{"one hash", []uint64{42}, false},
		{"all equal", spread(300, func(int) uint64 { return 0xdeadbeef }), true},
		{"two zero hashes", []uint64{0, 7, 0}, true},
		{"one zero hash", []uint64{0, 7, 1 << 63}, false},
		{"distinct", spread(5000, mix), false},
		{"equal pair at first and last index", withPair(spread(5000, mix), 0, 4999), true},
		{"differ only in the top byte", spread(256, func(i int) uint64 { return uint64(i)<<56 | 0x00ab_cdef_0123_4567 }), false},
		{"top-byte neighbours and a pair", withPair(spread(256, func(i int) uint64 { return uint64(i)<<56 | 0x00ab_cdef_0123_4567 }), 3, 200), true},
		{"differ only in the lowest byte", spread(256, func(i int) uint64 { return 0xfedc_ba98_7654_3200 | uint64(i) }), false},
		{"lowest-byte neighbours and a pair", withPair(spread(256, func(i int) uint64 { return 0xfedc_ba98_7654_3200 | uint64(i) }), 255, 0), true},
		{"one bucket holds every hash", spread(3000, func(i int) uint64 { return 0x5a<<56 | mix(i)>>8 }), false},
		{"one bucket with a pair", withPair(spread(3000, func(i int) uint64 { return 0x5a<<56 | mix(i)>>8 }), 1234, 2999), true},
	} {
		if got := hasEqual(slices.Clone(tc.hs)); got != tc.want {
			t.Errorf("%s: hasEqual = %v, want %v", tc.name, got, tc.want)
		}
	}
	// Against a set, on hashes drawn from pools about as large as the
	// draw, so about half the draws repeat one; half the pool shares
	// top byte 0, the rest spans the buckets.
	r := rand.New(rand.NewPCG(1, 2))
	for range 200 {
		n := r.IntN(3000)
		pool := spread(n+n/2+1, func(i int) uint64 { return r.Uint64() >> (8 * (i % 2)) })
		hs := spread(n, func(int) uint64 { return pool[r.IntN(len(pool))] })
		seen, want := map[uint64]bool{}, false
		for _, h := range hs {
			want = want || seen[h]
			seen[h] = true
		}
		if got := hasEqual(slices.Clone(hs)); got != want {
			t.Fatalf("%d drawn hashes: hasEqual = %v, want %v", n, got, want)
		}
	}
}
