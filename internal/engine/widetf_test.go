package engine

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"deepweb/internal/index"
)

// A term said 300 times in one document has a tf above 255, so its
// posting list holds every tf at four bytes, beside lists of one byte
// a tf. Each path a list takes answers every query exactly as the live
// index does — ids, score bits and totals: Save then Load; BulkBuild
// with a spill window that splits the list across runs, one byte a tf
// in the first run and four in a later one, then Load; and a commit
// onto the builder a snapshot loads into (loadBuilder), which appends
// to lists decoded into one array per segment.
func TestWideTFAnswersAlike(t *testing.T) {
	var docs []index.Doc
	for i := range 12 {
		text := fmt.Sprintf("used ford focus %d in seattle", i)
		switch i {
		case 6:
			text += strings.Repeat(" ford", 300) // tf 301
		case 7:
			text += strings.Repeat(" civic", 255) // tf 255, still one byte
		case 9:
			text += strings.Repeat(" focus", 255) // tf 256
		}
		docs = append(docs, index.Doc{URL: fmt.Sprintf("http://tf.example/%d", i), Title: "listing", Text: text})
	}
	b := index.New()
	for _, d := range docs {
		b.Add(d)
	}
	live := serve(b)
	saved := t.TempDir()
	if err := live.Save(saved, nil); err != nil {
		t.Fatal(err)
	}
	built := t.TempDir()
	stats, err := BulkBuild(context.Background(), &docSource{docs: docs, anns: make([]map[string]string, len(docs))}, built,
		BulkBuildOptions{Docs: len(docs), SpillDocs: 4})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Runs < 3 {
		t.Fatalf("%d spill runs: the lists were not split", stats.Runs)
	}

	queries := []string{"ford", "civic", "focus", "ford focus", "civic focus seattle", "used listing"}
	check := func(label string, e *Engine) {
		t.Helper()
		for _, q := range queries {
			req := SearchRequest{Query: q, K: len(docs) + 1}
			want, err := live.Search(context.Background(), req)
			if err != nil {
				t.Fatal(err)
			}
			got, err := e.Search(context.Background(), req)
			if err != nil {
				t.Fatal(err)
			}
			assertBitIdentical(t, fmt.Sprintf("%s, %q", label, q), got, want)
		}
	}
	if hits, _ := live.Search(context.Background(), SearchRequest{Query: "ford", K: 1}); hits.Results[0].DocID != 6 {
		t.Fatalf("top hit for ford is doc %d, want 6", hits.Results[0].DocID)
	}
	fromSave, err := Load(saved)
	if err != nil {
		t.Fatal(err)
	}
	check("Save, Load", fromSave)
	fromBulk, err := Load(built)
	if err != nil {
		t.Fatal(err)
	}
	check("BulkBuild, Load", fromBulk)

	more := index.Doc{URL: "http://tf.example/more", Title: "listing", Text: strings.Repeat("ford focus ", 280)}
	b.Add(more)
	live = serve(b)
	loaded, _, err := loadBuilder(saved)
	if err != nil {
		t.Fatal(err)
	}
	loaded.Add(more)
	check("Load, then a commit", serve(loaded))
}
