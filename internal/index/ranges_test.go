package index_test

import (
	"fmt"
	"math"
	"testing"

	"deepweb/internal/engine"
	"deepweb/internal/index"
)

// Each schema's columns carry a NumRange: the least and greatest
// reading, the NaN count and the count of values with no reading. An
// index annotated live, one the same tables were installed into, and
// the live one saved and loaded hold equal ranges, bit for bit; a
// commit after the install or the load widens them as it widens the
// live one's.
func TestNumRangesLiveInstalledAndLoaded(t *testing.T) {
	prices := []string{"3800", "nan", "12000.5", "n/a", "-0", "inf", "1e3"}
	live := engine.New()
	add := func(ix *index.Index, i int) {
		id, _ := ix.Add(index.Doc{URL: fmt.Sprintf("http://cars.example/%d", i), Text: "used car"})
		anns := map[string]string{"price": prices[i%len(prices)], "year": fmt.Sprint(1990 + i%7)}
		if i%3 == 0 {
			anns["city"] = "oslo" // a second schema
		}
		ix.Annotate(id, anns)
	}
	const n = 40
	for i := range n {
		add(live.Index, i)
	}

	installed := index.New()
	var docs []index.Doc
	lens := make([]int32, live.Index.Len())
	for id := range lens {
		docs = append(docs, live.Index.Doc(id))
		lens[id] = 2
	}
	if err := installed.ImportDocs(docs, lens, nil); err != nil {
		t.Fatal(err)
	}
	cols, schemas := live.Index.ExportAnnotations()
	if err := installed.InstallAnnotations(cols, schemas, len(docs)); err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := live.Save(dir, nil); err != nil {
		t.Fatal(err)
	}
	loaded, err := engine.Load(dir)
	if err != nil {
		t.Fatal(err)
	}

	want := live.Index.AnnotationTables()
	// Schema 2 is {price, year}: of the 40 documents the 26 whose id is
	// not a multiple of 3 (schema 1 adds city).
	if price := want.Ranges[2][0]; math.Float64bits(price.Min) != math.Float64bits(math.Copysign(0, -1)) || price.Max != math.Inf(1) || price.NaN != 4 || price.Words != 4 {
		t.Fatalf("schema 2's price column has range %+v, want [-0, +Inf], 4 NaN, 4 words", price)
	}
	if year := want.Ranges[2][1]; year.Min != 1990 || year.Max != 1996 || year.NaN != 0 || year.Words != 0 {
		t.Fatalf("schema 2's year column has range %+v, want [1990, 1996]", year)
	}
	equalRanges(t, "installed", installed.AnnotationTables().Ranges, want.Ranges)
	equalRanges(t, "loaded", loaded.Index.AnnotationTables().Ranges, want.Ranges)

	for i := n; i < n+10; i++ {
		add(live.Index, i)
		add(installed, i)
		add(loaded.Index, i)
	}
	want = live.Index.AnnotationTables()
	equalRanges(t, "installed, then committed to", installed.AnnotationTables().Ranges, want.Ranges)
	equalRanges(t, "loaded, then committed to", loaded.Index.AnnotationTables().Ranges, want.Ranges)
}

func equalRanges(t *testing.T, name string, got, want [][]index.NumRange) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d schemas' ranges, want %d", name, len(got), len(want))
	}
	for s := range want {
		if len(got[s]) != len(want[s]) {
			t.Fatalf("%s: schema %d has %d ranges, want %d", name, s, len(got[s]), len(want[s]))
		}
		for i, w := range want[s] {
			g := got[s][i]
			if math.Float64bits(g.Min) != math.Float64bits(w.Min) || math.Float64bits(g.Max) != math.Float64bits(w.Max) || g.NaN != w.NaN || g.Words != w.Words {
				t.Errorf("%s: schema %d column %d has range %+v, want %+v", name, s, i, g, w)
			}
		}
	}
}
