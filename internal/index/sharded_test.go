package index

import (
	"fmt"
	"sync"
	"testing"
)

// Sharding must be invisible: any shard count yields identical search
// results for the same insertion order.
func TestShardCountInvariant(t *testing.T) {
	build := func(n int) *Index {
		ix := NewSharded(n)
		for i := 0; i < 60; i++ {
			ix.Add(Doc{
				URL:   fmt.Sprintf("u%d", i),
				Title: fmt.Sprintf("listing %d", i),
				Text: fmt.Sprintf("ford focus %d for sale in seattle price %d record %d",
					1990+i%20, 500+i*13%25000, i),
			})
		}
		return ix
	}
	ref := build(1)
	for _, shards := range []int{2, 7, 16} {
		ix := build(shards)
		for _, q := range []string{"ford focus", "seattle price", "record 7", "listing"} {
			want := search(ref, q, 10)
			got := search(ix, q, 10)
			if len(got) != len(want) {
				t.Fatalf("shards=%d q=%q: %d hits, want %d", shards, q, len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Errorf("shards=%d q=%q hit %d: %+v want %+v", shards, q, i, got[i], want[i])
				}
			}
		}
		if ref.DF("ford") != ix.DF("ford") {
			t.Errorf("shards=%d: DF diverged", shards)
		}
	}
}

// Prepare/AddPrepared must be equivalent to Add, including duplicate
// handling.
func TestAddPreparedMatchesAdd(t *testing.T) {
	a, b := New(), New()
	docs := []Doc{
		{URL: "u1", Title: "used cars", Text: "ford focus for sale"},
		{URL: "u2", Title: "recipes", Text: "lasagna with ricotta"},
		{URL: "u1", Title: "dup", Text: "should not reindex"},
	}
	for _, d := range docs {
		idA, addedA := a.Add(d)
		idB, addedB := b.AddPrepared(Prepare(d))
		if idA != idB || addedA != addedB {
			t.Fatalf("Add(%q)=(%d,%v) but AddPrepared=(%d,%v)", d.URL, idA, addedA, idB, addedB)
		}
	}
	if a.Len() != b.Len() {
		t.Fatalf("Len %d vs %d", a.Len(), b.Len())
	}
	for _, q := range []string{"ford focus", "ricotta", "reindex"} {
		ra, rb := search(a, q, 5), search(b, q, 5)
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

// Hammer concurrent AddPrepared + Search across goroutines; run with
// -race. Content (not ids) must come out complete regardless of
// interleaving.
func TestConcurrentAddPrepared(t *testing.T) {
	ix := New()
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
				ix.AddPrepared(p)
			}
		}(w)
	}
	for i := 0; i < 100; i++ {
		search(ix, "pelican shared", 5)
	}
	wg.Wait()
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
