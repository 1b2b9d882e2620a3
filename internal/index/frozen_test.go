package index_test

import (
	"context"
	"fmt"
	"math"
	"strings"
	"sync"
	"testing"
	"time"

	"deepweb/internal/index"
	"deepweb/internal/query"
)

// A frozen reader answers the same for its whole life. Readers search
// one reader — plain, annotated and filtered through query.Matcher, and
// read documents and annotations by id — while the builder it was
// frozen from commits annotated batches bringing everything a write can
// change: new terms and more postings for old ones, a tf above 255, a
// new host, new values for old attributes (numeric ones among them), a
// new attribute and a new schema. The builder freezes again between
// some batches, so it thaws more than once, and pauses between them,
// so the readers' scans interleave with its writes. Every answer must be the
// one taken before the commits, bit for bit; a second Freeze must see
// the new documents. Run under -race, this is the check on what the
// builder copies before a write and what it only appends past the
// reader's ends.
func TestConcurrentAddSearch(t *testing.T) {
	b := index.NewSharded(4)
	makes, cities := []string{"ford", "honda", "audi"}, []string{"seattle", "portland"}
	doc := func(host string, i int, text string) *index.Prepared {
		return index.Prepare(index.Doc{URL: fmt.Sprintf("http://%s/doc/%d", host, i), Title: "listing " + makes[i%3], Text: text})
	}
	const base = 240
	var ps []*index.Prepared
	var anns []map[string]string
	for i := range base {
		ps = append(ps, doc(fmt.Sprintf("h%d.example", i%2), i, fmt.Sprintf("used %s focus %s number %d", makes[i%3], cities[i%2], i)))
		anns = append(anns, map[string]string{"make": makes[i%3], "city": cities[i%2], "price": fmt.Sprint(1000 + (i%40)*250)})
	}
	b.AddPreparedBatch(ps, anns)
	ix := b.Freeze()

	ctx := context.Background()
	render := func(hits []index.Result, total int, err error) string {
		var sb strings.Builder
		fmt.Fprintf(&sb, "total=%d err=%v", total, err)
		for _, h := range hits {
			fmt.Fprintf(&sb, " %d:%s:%s:%x", h.DocID, h.URL, h.Source, math.Float64bits(h.Score))
		}
		return sb.String()
	}
	filtered := func(q, host string, preds ...string) func() string {
		var ps []query.Predicate
		for _, s := range preds {
			p, err := query.Parse(s)
			if err != nil {
				t.Fatal(err)
			}
			ps = append(ps, p)
		}
		m := query.NewMatcher(ps)
		return func() string { return render(ix.TopK(ctx, q, 50, 0, m.Filter(ix, host))) }
	}
	probes := []func() string{
		func() string { return render(ix.TopK(ctx, "used ford focus", 10, 0, nil)) },
		func() string { return render(ix.TopK(ctx, "ford", 1000, 0, nil)) },
		func() string { return render(ix.TopK(ctx, "zeppelin ford", 5, 3, nil)) },
		func() string { return render(ix.AnnotatedTopK(ctx, "used ford seattle", 20, 0, nil)) },
		func() string { return render(ix.AnnotatedTopK(ctx, "lada riga listing", 20, 0, nil)) },
		filtered("listing", "", "price<4000"),
		filtered("used focus", "h1.example", "make:ford"),
		filtered("listing", "", "make:lada"),
		filtered("listing", "", "color:red", "price>100"),
		filtered("listing", "n11.example"),
		func() string { return fmt.Sprint(ix.Len(), ix.DF("zeppelin"), ix.DF("ford"), ix.DF("lada")) },
		func() string {
			var sb strings.Builder
			for id := 0; id < ix.Len(); id += 7 {
				fmt.Fprint(&sb, ix.Doc(id), ix.AnnotationsOf(id))
			}
			return sb.String()
		},
	}
	want := make([]string, len(probes))
	for i, p := range probes {
		want[i] = p()
	}

	done := make(chan struct{})
	var wg sync.WaitGroup
	errs := make(chan string, 3)
	for r := range 3 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := r; ; i++ {
				select {
				case <-done:
					return
				default:
				}
				if got := probes[i%len(probes)](); got != want[i%len(probes)] {
					errs <- fmt.Sprintf("probe %d changed under commits:\n  was %.300s\n  now %.300s", i%len(probes), want[i%len(probes)], got)
					return
				}
			}
		}()
	}
	added := 0
	for batch := range 12 {
		ps, anns = nil, nil
		for j := range 10 {
			i := base + batch*10 + j
			text := fmt.Sprintf("used %s focus zeppelin %d", makes[i%3], i)
			if j == 0 {
				text += strings.Repeat(" ford", 300)
			}
			host := fmt.Sprintf("h%d.example", i%2)
			if batch%3 == 2 {
				host = fmt.Sprintf("n%d.example", batch)
			}
			a := map[string]string{"make": makes[i%3], "city": cities[i%2], "price": fmt.Sprint(i * 3)}
			switch batch % 4 {
			case 1:
				a["make"], a["city"] = "lada", "riga"
			case 3:
				a["color"] = "red"
			}
			ps, anns = append(ps, doc(host, i, text)), append(anns, a)
		}
		_, ok := b.AddPreparedBatch(ps, anns)
		for _, a := range ok {
			if a {
				added++
			}
		}
		if batch%2 == 1 {
			b.Freeze()
		}
		time.Sleep(time.Millisecond)
	}
	close(done)
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}
	for i, p := range probes {
		if got := p(); got != want[i] {
			t.Errorf("probe %d changed after the commits", i)
		}
	}

	next := b.Freeze()
	if next.Len() != base+added || added != 120 {
		t.Fatalf("second Freeze holds %d documents, want %d + %d", next.Len(), base, added)
	}
	if hits, total, _ := next.TopK(ctx, "zeppelin", 1, 0, &index.Filter{Host: "n11.example"}); total != 10 || len(hits) != 1 {
		t.Errorf("second Freeze: %d zeppelin pages on the last new host, want 10", total)
	}
	if got := next.AnnotationsOf(base + 30)["color"]; got != "red" {
		t.Errorf("second Freeze: doc %d color %q, want red", base+30, got)
	}
	hits, _, _ := next.TopK(ctx, "ford", 1, 0, nil)
	if len(hits) != 1 || !strings.Contains(next.Doc(hits[0].DocID).Text, strings.Repeat(" ford", 300)) {
		t.Errorf("second Freeze: top ford hit %v is not a page saying ford 300 times", hits)
	}
}
