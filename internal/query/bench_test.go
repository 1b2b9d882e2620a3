package query

import (
	"fmt"
	"math/rand"
	"testing"

	"deepweb/internal/index"
)

// BenchmarkBoundMatch runs Bound.Match over every document of a
// synthetic 50k-document index whose annotation tables were installed
// as a snapshot load installs them (an AnnBuilder's Tables handed to
// InstallAnnotations), and reports the time per candidate for five
// predicates: an equality, a numeric bound on one column, a numeric
// bound that reads two type-compatible columns (minprice and maxprice
// both read as price; most documents fail the first and are decided by
// the second) — all three judged document by document —, a bound every
// year meets (its schemas plan to admit all) and one no price meets
// (they plan to reject all). Every document carries every column these
// predicates read, so the text fallback never runs. One pass binds the
// matcher once, as a scan does; no writer runs, so Match may read the
// tables outside a scan. Each case checks that it admits what its
// verdict says: some documents but not all, all, or none.
func BenchmarkBoundMatch(b *testing.B) {
	const docs = 50_000
	r := rand.New(rand.NewSource(1))
	rows := make([]index.Doc, docs)
	lens := make([]int32, docs)
	for id := range rows {
		rows[id] = index.Doc{URL: fmt.Sprintf("http://match.example/%d", id)}
		lens[id] = 1
	}
	ix := index.New()
	if err := ix.ImportDocs(rows, lens, nil); err != nil {
		b.Fatal(err)
	}
	builder := index.NewAnnBuilder()
	makes := []string{"ford", "honda", "toyota", "saab", "volvo", "fiat", "kia", "mazda", "audi", "skoda"}
	for id := range docs {
		minPrice := 1000 + r.Intn(19000)
		anns := map[string]string{
			"make":     makes[r.Intn(len(makes))],
			"model":    fmt.Sprintf("model %d", r.Intn(2000)),
			"year":     fmt.Sprint(1990 + r.Intn(21)),
			"minprice": fmt.Sprint(minPrice),
			"maxprice": fmt.Sprint(minPrice + 1000 + r.Intn(9000)),
		}
		if id%2 == 1 {
			anns["city"] = fmt.Sprintf("city %d", r.Intn(300)) // a second schema
		}
		builder.Annotate(id, anns)
	}
	cols, schemas := builder.Tables()
	if err := ix.InstallAnnotations(cols, schemas, docs); err != nil {
		b.Fatal(err)
	}
	const some, all, none = "some", "all", "none"
	for _, tc := range []struct{ name, preds, admits string }{
		{"eq", "make:ford", some},
		{"bound", "year>=2000", some},
		{"two-columns", "price>=15000", some},
		{"admit-all", "year>=1990", all},
		{"reject-all", "price>40000", none},
	} {
		b.Run(tc.name, func(b *testing.B) {
			_, preds := Extract(tc.preds)
			m := NewMatcher(preds)
			admitted := 0
			for b.Loop() {
				bound := m.Bind(ix)
				admitted = 0
				for id := range docs {
					if bound.Match(id) {
						admitted++
					}
				}
			}
			got := some
			switch admitted {
			case 0:
				got = none
			case docs:
				got = all
			}
			if got != tc.admits {
				b.Fatalf("%s admits %d of %d documents, want %s", tc.preds, admitted, docs, tc.admits)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/docs, "ns/candidate")
		})
	}
}
