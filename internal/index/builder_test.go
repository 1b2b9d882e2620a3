package index

import (
	"fmt"
	"sync"
	"testing"
)

func TestAddPreparedBatchEmpty(t *testing.T) {
	ix := New()
	ids, added := ix.AddPreparedBatch(nil, nil)
	if len(ids) != 0 || len(added) != 0 {
		t.Fatal("empty batch produced output")
	}
}

func TestPreparedAccessors(t *testing.T) {
	p := Prepare(Doc{URL: "u", Title: "ford focus", Text: "ford excellent"})
	if p.Doc().URL != "u" {
		t.Fatal("Doc accessor")
	}
	// Title tokens count twice in dl: 2 title + 2 text + 2 = 6.
	if p.DocLen() != 6 {
		t.Fatalf("DocLen = %d, want 6", p.DocLen())
	}
	terms, tfs := p.Terms(), p.TermFreqs()
	if len(terms) != len(tfs) || len(terms) == 0 {
		t.Fatalf("terms/tfs mismatch: %v %v", terms, tfs)
	}
	var fordTF int32
	for i, tm := range terms {
		if tm == "ford" {
			fordTF = tfs[i]
		}
	}
	if fordTF != 3 { // 2 (title) + 1 (text)
		t.Fatalf("ford tf = %d, want 3", fordTF)
	}
}

// Prepare/AddPrepared, and one AddPreparedBatch of the same documents,
// must be equivalent to Add, including duplicate handling: a duplicate
// later in the batch reports the id of the first.
func TestAddPreparedMatchesAdd(t *testing.T) {
	a, b := New(), New()
	docs := []Doc{
		{URL: "u1", Title: "used cars", Text: "ford focus for sale"},
		{URL: "u2", Title: "recipes", Text: "lasagna with ricotta"},
		{URL: "u1", Title: "dup", Text: "should not reindex"},
	}
	ps := make([]*Prepared, len(docs))
	for i, d := range docs {
		ps[i] = Prepare(d)
	}
	batchIDs, batchAdded := New().AddPreparedBatch(ps, nil)
	for i, d := range docs {
		idA, addedA := a.Add(d)
		idB, addedB := b.AddPrepared(Prepare(d))
		if idA != idB || addedA != addedB || idA != batchIDs[i] || addedA != batchAdded[i] {
			t.Fatalf("Add(%q)=(%d,%v) but AddPrepared=(%d,%v), AddPreparedBatch=(%d,%v)",
				d.URL, idA, addedA, idB, addedB, batchIDs[i], batchAdded[i])
		}
	}
	ra, rb := a.Freeze(), b.Freeze()
	if ra.Len() != rb.Len() {
		t.Fatalf("Len %d vs %d", ra.Len(), rb.Len())
	}
	for _, q := range []string{"ford focus", "ricotta", "reindex"} {
		ra, rb := search(ra, q, 5), search(rb, q, 5)
		if len(ra) != len(rb) {
			t.Fatalf("q=%q: %d vs %d hits", q, len(ra), len(rb))
		}
		for i := range ra {
			if ra[i] != rb[i] {
				t.Errorf("q=%q hit %d: %+v vs %+v", q, i, ra[i], rb[i])
			}
		}
	}
}

// Hammer concurrent AddPrepared, Freeze and Search across goroutines;
// run with -race. Content (not ids) must come out complete regardless
// of interleaving.
func TestConcurrentAddPrepared(t *testing.T) {
	b := New()
	const writers, perWriter = 8, 50
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				p := Prepare(Doc{
					URL:  fmt.Sprintf("w%d-u%d", w, i),
					Text: fmt.Sprintf("pelican writer%02d item%02d shared vocabulary", w, i),
				})
				b.AddPrepared(p)
			}
		}(w)
	}
	for i := 0; i < 100; i++ {
		search(b.Freeze(), "pelican shared", 5)
	}
	wg.Wait()
	ix := b.Freeze()
	if got := ix.Len(); got != writers*perWriter {
		t.Fatalf("Len = %d, want %d", got, writers*perWriter)
	}
	if df := ix.DF("pelican"); df != writers*perWriter {
		t.Errorf("DF(pelican) = %d, want %d", df, writers*perWriter)
	}
	// Every document must be fully searchable by its unique term pair.
	for w := 0; w < writers; w++ {
		for i := 0; i < perWriter; i += 7 {
			q := fmt.Sprintf("writer%02d item%02d", w, i)
			found := false
			for _, r := range search(ix, q, 10) {
				if r.URL == fmt.Sprintf("w%d-u%d", w, i) {
					found = true
					break
				}
			}
			if !found {
				t.Errorf("doc w%d-u%d not retrievable", w, i)
			}
		}
	}
}

func BenchmarkAddPreparedParallel(b *testing.B) {
	ix := New()
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		i := 0
		for pb.Next() {
			p := Prepare(Doc{
				URL:  fmt.Sprintf("u-%p-%d", &i, i),
				Text: "ford focus 1993 for sale in seattle clean title low miles",
			})
			ix.AddPrepared(p)
			i++
		}
	})
}
