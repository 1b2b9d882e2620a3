package engine

import (
	"context"
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"testing"

	"deepweb/internal/index"
	"deepweb/internal/query"
)

// The bound matcher (query.Matcher.Bind, what Search's filter runs)
// against the map-taking reference (Matcher.Match over AnnotationsOf):
// random documents × random predicate lists must agree on every
// document, at every stage an annotation row lives through — freshly
// built, read beside a concurrent Annotate writer, re-annotated under
// a Bound taken earlier, renumbered by Delete + Compact, and rebuilt
// by Save → Load. Run with -race: the live stage's filtered Searches
// scan beside the writer, so a lock-order regression deadlocks or
// races here.

var (
	boundAttrs = []string{"make", "city", "town", "price", "minprice", "maxprice", "salary", "year", "modelyear", "mileage", "notes"}
	boundWords = []string{"ford", "honda", "santa fe", "new york city", "seattle", "cheap", "n/a", "nan", "inf", "clean title"}
	boundNums  = []string{"3800", "9000", "12000.5", "40000", "1e3", "2005", "2009", "1999", "-5", "0"}
)

// boundDoc draws one document: text that mentions words and numbers
// (so the text fallback has something to find) and, for most, a few
// annotations — numeric attributes now and then carrying prose.
func boundDoc(r *rand.Rand, i int) (index.Doc, map[string]string) {
	var text []string
	for n := 3 + r.Intn(6); n > 0; n-- {
		if r.Intn(2) == 0 {
			text = append(text, pick(r, boundWords))
		} else {
			text = append(text, pick(r, boundNums))
		}
	}
	d := index.Doc{
		URL:   fmt.Sprintf("http://h%d.example/doc/%04d", i%3, (i*7919)%10000),
		Title: "listing " + pick(r, boundWords),
		Text:  "listing " + strings.Join(text, " "),
	}
	if r.Intn(10) < 3 {
		return d, nil
	}
	anns := map[string]string{}
	for n := 1 + r.Intn(4); n > 0; n-- {
		if r.Intn(4) == 0 {
			anns[pick(r, boundAttrs)] = pick(r, boundWords)
		} else {
			anns[pick(r, boundAttrs)] = pick(r, boundNums)
		}
	}
	return d, anns
}

// boundPreds draws a predicate list over all six operators, known and
// unknown attributes, typed and untyped.
func boundPreds(t *testing.T, r *rand.Rand) []query.Predicate {
	attrs := append([]string{"color", "cost"}, boundAttrs...)
	var preds []query.Predicate
	for n := 1 + r.Intn(3); n > 0; n-- {
		attr := pick(r, attrs)
		var spec string
		switch op := r.Intn(6); op {
		case 0:
			vals := boundWords
			if r.Intn(3) == 0 {
				vals = boundNums
			}
			preds = append(preds, query.Eq(attr, pick(r, vals)))
			continue
		case 5:
			lo, hi := pick(r, boundNums), pick(r, boundNums)
			if p, err := query.Parse(attr + ":" + lo + ".." + hi); err == nil {
				preds = append(preds, p)
				continue
			}
			spec = attr + ":" + hi + ".." + lo
		default:
			spec = attr + []string{"", "<", "<=", ">", ">="}[op] + pick(r, boundNums)
		}
		preds = append(preds, mustPred(t, spec))
	}
	return preds
}

// requireBoundAgrees checks bound ≡ reference on every document row
// skip does not exclude, and that a filtered Search admits exactly the
// live documents the reference admits: its Total when skip is nil, its
// hits outside skip otherwise — the skipped rows are a concurrent
// writer's, so the Search runs beside that writer.
func requireBoundAgrees(t *testing.T, when string, e *Engine, lists [][]query.Predicate, bounds []*query.Bound, skip func(id int) bool) (admitted, rejected int) {
	t.Helper()
	ix := e.Index
	table := ix.Len() + ix.Deleted()
	live := map[int]bool{}
	ix.ForEachLive(func(id int, _ index.Doc) { live[id] = true })
	rows := rowsOf(ix)
	for li, preds := range lists {
		m := query.NewMatcher(preds)
		b := m.Bind(ix)
		if bounds != nil {
			b = bounds[li]
		}
		total := 0
		for id := 0; id < table; id++ {
			d := ix.Doc(id)
			got := b.Match(rows[id], &d)
			if skip != nil && skip(id) {
				continue
			}
			want := m.Match(ix.AnnotationsOf(id), d.Title, d.Text)
			if got != want {
				t.Fatalf("%s: doc %d, filter %q: bound %v, reference %v (annotations %v, text %q)",
					when, id, query.Key(preds), got, want, ix.AnnotationsOf(id), d.Text)
			}
			if want {
				admitted++
				if live[id] {
					total++
				}
			} else {
				rejected++
			}
		}
		if skip == nil {
			resp, err := e.Search(context.Background(), SearchRequest{Query: "listing", K: 5, Filters: preds})
			if err != nil || resp.Total != total {
				t.Fatalf("%s: filter %q: Search total %d (err %v), reference admits %d live documents", when, query.Key(preds), resp.Total, err, total)
			}
			continue
		}
		resp, err := e.Search(context.Background(), SearchRequest{Query: "listing", K: table, Filters: preds})
		if err != nil {
			t.Fatalf("%s: filter %q: Search: %v", when, query.Key(preds), err)
		}
		outside := 0
		for _, h := range resp.Results {
			if !skip(h.DocID) {
				outside++
			}
		}
		if outside != total {
			t.Fatalf("%s: filter %q: Search admits %d live documents outside the writer's, reference %d", when, query.Key(preds), outside, total)
		}
	}
	return admitted, rejected
}

// rowsOf copies every live document's annotation row as a filtered
// scan hands it to keep (every test document's title says "listing").
func rowsOf(ix *index.Index) map[int][]index.AnnPair {
	rows := map[int][]index.AnnPair{}
	ix.TopK(context.Background(), "listing", ix.Len()+ix.Deleted(), 0, func(id int, _ *index.Doc, row []index.AnnPair) bool {
		rows[id] = append([]index.AnnPair(nil), row...)
		return true
	})
	return rows
}

func TestBoundMatcherEqualsReference(t *testing.T) {
	const docs, reserved, nLists = 240, 40, 40
	for _, shards := range []int{1, 4, 16} {
		r := rand.New(rand.NewSource(int64(shards)))
		e := newEngine()
		e.Index = index.NewSharded(shards)
		ix := e.Index
		unannotated := 0
		for i := 0; i < docs; i++ {
			d, anns := boundDoc(r, i)
			id, _ := ix.Add(d)
			ix.Annotate(id, anns)
			if len(anns) == 0 {
				unannotated++
			}
		}
		e.bumpEpoch()
		lists := make([][]query.Predicate, nLists)
		for i := range lists {
			lists[i] = boundPreds(t, r)
		}
		msg := func(stage string) string { return fmt.Sprintf("shards=%d %s", shards, stage) }

		// Live, beside a writer annotating the reserved documents with
		// attributes and values the dictionaries have never seen.
		var wg sync.WaitGroup
		stop := make(chan struct{})
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				ix.Annotate(i%reserved, map[string]string{
					fmt.Sprintf("extra%d", i%17): fmt.Sprint(i),
					"price":                      fmt.Sprint(1000 + i),
					"make":                       pick(rand.New(rand.NewSource(int64(i))), boundWords),
				})
			}
		}()
		admitted, rejected := requireBoundAgrees(t, msg("live"), e, lists, nil, func(id int) bool { return id < reserved })
		close(stop)
		wg.Wait()
		e.bumpEpoch()
		if admitted == 0 || rejected == 0 || unannotated == 0 {
			t.Fatalf("shards=%d: vacuous: %d admitted, %d rejected, %d unannotated documents", shards, admitted, rejected, unannotated)
		}
		requireBoundAgrees(t, msg("writer stopped"), e, lists, nil, nil)

		// Re-annotation under Bounds taken before it: overwritten
		// values, and attributes and values interned after the bind.
		stale := make([]*query.Bound, len(lists))
		for i, preds := range lists {
			stale[i] = query.NewMatcher(preds).Bind(ix)
		}
		for id := reserved; id < docs; id += 5 {
			ix.Annotate(id, map[string]string{
				pick(r, boundAttrs):         pick(r, boundNums),
				"price":                     fmt.Sprint(77000 + id),
				fmt.Sprintf("late%d", id%3): "late value " + fmt.Sprint(id),
			})
		}
		e.bumpEpoch()
		requireBoundAgrees(t, msg("re-annotated, stale bounds"), e, lists, stale, nil)
		requireBoundAgrees(t, msg("re-annotated"), e, lists, nil, nil)

		// Delete + Compact renumbers every row.
		for id := 0; id < docs; id += 3 {
			ix.Delete(id)
		}
		e.bumpEpoch()
		requireBoundAgrees(t, msg("deleted"), e, lists, nil, nil)
		ix.Compact()
		e.bumpEpoch()
		requireBoundAgrees(t, msg("compacted"), e, lists, nil, nil)

		// Save → Load rebuilds the columns from the persisted strings.
		dir := t.TempDir()
		if err := e.Save(dir); err != nil {
			t.Fatalf("shards=%d: save: %v", shards, err)
		}
		loaded, err := Load(dir)
		if err != nil {
			t.Fatalf("shards=%d: load: %v", shards, err)
		}
		requireBoundAgrees(t, msg("loaded"), loaded, lists, nil, nil)
	}
}
