package index

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"deepweb/internal/textutil"
)

// pairsOf returns a list's postings as doc id, tf pairs.
func pairsOf(pl PostingList) []int32 {
	var out []int32
	for i := range pl.Len() {
		out = append(out, pl.Doc(i), pl.TF(i))
	}
	return out
}

// A list holds one byte per tf until a tf above 255 arrives, then four
// for every tf, old and new; the postings read back the same either way.
func TestPostingListWidensOnce(t *testing.T) {
	var pl PostingList
	pl.Append(3, 1)
	pl.Append(5, 255)
	if pl.wide() || len(pl.tfs) != 2 {
		t.Fatalf("tfs up to 255 widened the list: %d tf bytes for 2 postings", len(pl.tfs))
	}
	pl.Append(8, 256)
	pl.Append(9, 2)
	pl.Append(12, math.MaxInt32)
	if !pl.wide() || len(pl.tfs) != 4*pl.Len() {
		t.Fatalf("tf 256 left %d tf bytes for %d postings", len(pl.tfs), pl.Len())
	}
	want := []int32{3, 1, 5, 255, 8, 256, 9, 2, 12, math.MaxInt32}
	if got := pairsOf(pl); fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("postings %v, want %v", got, want)
	}

	// Set widens a list over shared arrays without touching the
	// neighbour's bytes, and an Append past a list's capacity copies.
	docs, tfs := make([]int32, 4), make([]byte, 4)
	a := NewPostingList(docs[:2:2], tfs[:2:2])
	b := NewPostingList(docs[2:4:4], tfs[2:4:4])
	for i := range 2 {
		b.Set(i, int32(10+i), 7)
	}
	a.Set(0, 1, 1)
	a.Set(1, 2, 300)
	a.Append(3, 4)
	b.Append(13, 1)
	if got := pairsOf(a); fmt.Sprint(got) != "[1 1 2 300 3 4]" {
		t.Fatalf("widened list %v", got)
	}
	if got := pairsOf(b); fmt.Sprint(got) != "[10 7 11 7 13 1]" {
		t.Fatalf("neighbour %v", got)
	}
	if fmt.Sprint(docs, tfs) != "[1 2 10 11] [1 0 7 7]" {
		t.Fatalf("shared arrays %v %v: an append wrote past its list", docs, tfs)
	}
}

// Concatenation keeps every tf whichever of the two lists is wide.
func TestPostingListAppendList(t *testing.T) {
	narrow, wide := postingsOf(0, 1, 1, 2), postingsOf(2, 256, 3, 1)
	for _, c := range []struct {
		a, b PostingList
		want string
	}{
		{narrow, postingsOf(4, 9), "[0 1 1 2 4 9]"},
		{narrow, wide, "[0 1 1 2 2 256 3 1]"},
		{wide, narrow, "[2 256 3 1 0 1 1 2]"},
		{wide, wide, "[2 256 3 1 2 256 3 1]"},
	} {
		l := postingsOf(pairsOf(c.a)...)
		l.AppendList(c.b)
		if got := fmt.Sprint(pairsOf(l)); got != c.want {
			t.Errorf("%v + %v = %v, want %v", pairsOf(c.a), pairsOf(c.b), got, c.want)
		}
	}
}

// A term repeated 300 times in a document has tf 300, not 300 mod 256:
// it outscores the same term said 255 times, by BM25's own formula.
func TestTopKScoresWideTF(t *testing.T) {
	ix := New()
	for i, n := range []int{300, 255, 1} {
		ix.Add(Doc{URL: fmt.Sprintf("http://tf.example/%d", i), Text: strings.Repeat("ford ", n) + "focus"})
	}
	hits, total, err := ix.Freeze().TopK(context.Background(), "ford", 3, 0, nil)
	if err != nil || total != 3 {
		t.Fatalf("total %d, err %v", total, err)
	}
	avgdl := float64(301+256+2) / 3
	for rank, tf := range []float64{300, 255, 1} {
		dl := tf + 1
		w := idf(3, 3) * (bm25K1 + 1)
		want := w * tf / (tf + bm25K1*(1-bm25B) + bm25K1*bm25B/avgdl*dl)
		if hits[rank].DocID != rank || math.Float64bits(hits[rank].Score) != math.Float64bits(want) {
			t.Errorf("rank %d: doc %d score %v, want doc %d score %v", rank, hits[rank].DocID, hits[rank].Score, rank, want)
		}
	}
}

// BenchmarkScan runs TopK over a synthetic 200k-document index, built
// once, for a fixed set of queries whose terms span document
// frequencies from 50 to 100,000, and reports the time per posting
// scanned (the scan, the selection of the top 10 and the query's
// tokenization, divided by the postings of its terms). Tfs follow the
// benchmark corpus: about three in four are 1, none is above 6.
func BenchmarkScan(b *testing.B) {
	const docs = 200_000
	r := rand.New(rand.NewSource(1))
	rows := make([]Doc, docs)
	lens := make([]int32, docs)
	for id := range rows {
		rows[id] = Doc{URL: fmt.Sprintf("http://scan.example/%d", id)}
		lens[id] = int32(20 + r.Intn(180))
	}
	bld := NewSharded(1)
	if err := bld.ImportDocs(rows, lens, nil); err != nil {
		b.Fatal(err)
	}
	var tz textutil.Tokenizer
	var terms []TermPostings
	words := []string{"alpha", "bravo", "charlie", "delta", "echo", "foxtrot", "golf", "hotel", "india", "juliet", "kilo", "lima"}
	for i, w := range words {
		df := docs / 2 >> i // 100,000 down to 48
		// Doc ids ascend within a list, as a commit appends them.
		ids := r.Perm(docs)[:df]
		slices.Sort(ids)
		var pl PostingList
		for _, id := range ids {
			tf := int32(1)
			if r.Intn(4) == 0 {
				tf = int32(2 + r.Intn(5))
			}
			pl.Append(int32(id), tf)
		}
		terms = append(terms, TermPostings{Term: tz.StemmedTokensInto(nil, w)[0], Postings: pl})
	}
	if err := bld.ImportTerms(terms); err != nil {
		b.Fatal(err)
	}
	ix := bld.Freeze()
	queries := []string{"alpha", "alpha bravo", "charlie delta", "echo foxtrot golf", "hotel india", "juliet kilo lima", "bravo lima", "delta hotel kilo"}
	postings := 0
	for _, q := range queries {
		for _, w := range strings.Fields(q) {
			postings += ix.DF(w)
		}
	}
	ctx := context.Background()
	b.ReportAllocs()
	for b.Loop() {
		for _, q := range queries {
			if _, _, err := ix.TopK(ctx, q, 10, 0, nil); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(postings), "ns/posting")
}
