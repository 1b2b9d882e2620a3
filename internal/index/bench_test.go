package index

import (
	"fmt"
	"testing"
)

func benchIndex(n int) *Index {
	ix := New()
	for i := 0; i < n; i++ {
		ix.Add(Doc{
			URL:   fmt.Sprintf("http://site-%d.example/page", i),
			Title: fmt.Sprintf("listing %d", i),
			Text: fmt.Sprintf("ford focus %d for sale in seattle, price %d, clean title, low miles, record %d",
				1990+i%20, 500+i*13%25000, i),
		})
	}
	return ix
}

func BenchmarkIndexAdd(b *testing.B) {
	b.ReportAllocs()
	ix := New()
	for i := 0; i < b.N; i++ {
		ix.Add(Doc{
			URL:  fmt.Sprintf("u%d", i),
			Text: "ford focus 1993 for sale in seattle clean title low miles",
		})
	}
}

func BenchmarkSearch(b *testing.B) {
	ix := benchIndex(5000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		search(ix, "ford focus seattle", 10)
	}
}

// BenchmarkSearchWithTombstones is BenchmarkSearch over the same
// corpus with 30% of it deleted: the price of the tombstone-aware
// scoring pass (live-df counting plus the per-posting skip). Diffed in
// CI against BenchmarkSearch so delete-path regressions gate PRs.
func BenchmarkSearchWithTombstones(b *testing.B) {
	ix := benchIndex(5000)
	for i := 0; i < 5000; i += 3 {
		ix.Delete(i)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		search(ix, "ford focus seattle", 10)
	}
}

func BenchmarkAnnotatedSearch(b *testing.B) {
	ix := benchIndex(5000)
	for i := 0; i < 5000; i++ {
		ix.Annotate(i, map[string]string{"make": []string{"ford", "honda", "toyota"}[i%3]})
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		annotatedSearch(ix, "ford focus seattle", 10)
	}
}
