package index

import (
	"fmt"
	"sort"
	"sync"
	"testing"

	"deepweb/internal/textutil"
)

// searchReference is the pre-rewrite Search shape — a map score
// accumulator and a full sort — kept as an executable specification.
// It uses the same hoisted arithmetic as the production path, so the
// dense-accumulator + bounded-heap implementation must reproduce its
// results bit for bit, score included.
func searchReference(ix *Index, query string, k int) []Result {
	if k <= 0 {
		return nil
	}
	var tz textutil.Tokenizer
	qterms := tz.StemmedTokensInto(nil, query)
	if len(qterms) == 0 {
		return nil
	}
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	n := len(ix.docs)
	if n == 0 {
		return nil
	}
	avgdl := float64(ix.totalLen) / float64(n)
	if avgdl == 0 {
		avgdl = 1
	}
	c0 := bm25K1 * (1 - bm25B)
	c1 := bm25K1 * bm25B / avgdl
	scores := map[int32]float64{}
	seen := map[string]bool{}
	for _, t := range qterms {
		if seen[t] {
			continue
		}
		seen[t] = true
		plist := ix.plist(t)
		if len(plist) == 0 {
			continue
		}
		w := idf(n, len(plist)) * (bm25K1 + 1)
		for _, p := range plist {
			tf := float64(p.tf)
			scores[p.doc] += w * tf / (tf + c0 + c1*float64(ix.lens[p.doc]))
		}
	}
	out := make([]Result, 0, len(scores))
	for d, s := range scores {
		doc := ix.docs[d]
		out = append(out, Result{DocID: int(d), URL: doc.URL, Title: doc.Title, Source: doc.Source, Score: s})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Score != out[j].Score {
			return out[i].Score > out[j].Score
		}
		return out[i].DocID < out[j].DocID
	})
	if k < len(out) {
		out = out[:k]
	}
	return out
}

// accumulatorCorpus builds a corpus with heavy term sharing, duplicate
// scores (identical docs at different ids) and varying lengths — the
// shapes that stress top-k tie-breaking.
func accumulatorCorpus(n int) *Index {
	ix := New()
	for i := 0; i < n; i++ {
		ix.Add(Doc{
			URL:    fmt.Sprintf("http://site-%d.example/page", i),
			Title:  fmt.Sprintf("listing %d", i%7),
			Source: fmt.Sprintf("form-%d", i%5),
			Text: fmt.Sprintf("ford focus %d for sale in seattle, price %d, clean title, low miles, record %d",
				1990+i%20, 500+i*13%25000, i%11),
		})
	}
	return ix
}

var accumulatorQueries = []string{
	"ford focus seattle",
	"listing",
	"record 7 price",
	"clean title low miles",
	"ford ford focus focus", // duplicate query terms
	"nonexistent zebra",
	"the of and", // all stopwords
	"",
	"seattle 1993",
}

// The dense-accumulator/bounded-heap Search must equal the map/sort
// reference for every query and cut-off, including scores.
func TestSearchMatchesReferenceAccumulator(t *testing.T) {
	ix := accumulatorCorpus(500)
	for _, q := range accumulatorQueries {
		for _, k := range []int{0, 1, 3, 10, 499, 500, 2000} {
			got := search(ix, q, k)
			want := searchReference(ix, q, k)
			if len(got) != len(want) {
				t.Fatalf("q=%q k=%d: %d hits, want %d", q, k, len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Errorf("q=%q k=%d hit %d:\n  got  %+v\n  want %+v", q, k, i, got[i], want[i])
				}
			}
		}
	}
}

// Concurrent searches (pooled scratch reuse) racing concurrent inserts
// must stay consistent with the reference taken after quiescence, and
// must be clean under -race. Mid-flight result sets cannot be compared
// (the corpus is moving), so each goroutine only checks invariants:
// scores strictly ordered, no duplicate docs.
func TestSearchConcurrentWithWritesRace(t *testing.T) {
	ix := accumulatorCorpus(200)
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				ix.Add(Doc{
					URL:  fmt.Sprintf("http://w%d.example/p%d", w, i),
					Text: fmt.Sprintf("ford focus %d seattle writer %d", i%30, w),
				})
			}
		}(w)
	}
	for r := 0; r < 8; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				q := accumulatorQueries[i%len(accumulatorQueries)]
				res := search(ix, q, 10)
				seen := map[int]bool{}
				for j, hit := range res {
					if seen[hit.DocID] {
						t.Errorf("q=%q: doc %d appears twice", q, hit.DocID)
					}
					seen[hit.DocID] = true
					if j > 0 && (res[j-1].Score < hit.Score ||
						(res[j-1].Score == hit.Score && res[j-1].DocID > hit.DocID)) {
						t.Errorf("q=%q: hits %d,%d out of order", q, j-1, j)
					}
				}
			}
		}()
	}
	// Let the readers finish, then stop the writers and verify the
	// final index against the reference.
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	closeOnce := sync.OnceFunc(func() { close(stop) })
	for i := 0; i < 8; i++ {
		search(ix, "ford focus", 5)
	}
	closeOnce()
	<-done

	for _, q := range accumulatorQueries {
		got := search(ix, q, 25)
		want := searchReference(ix, q, 25)
		if len(got) != len(want) {
			t.Fatalf("post-quiescence q=%q: %d hits, want %d", q, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Errorf("post-quiescence q=%q hit %d: %+v want %+v", q, i, got[i], want[i])
			}
		}
	}
}
