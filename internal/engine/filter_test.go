package engine

import (
	"context"
	"slices"
	"testing"

	"deepweb/internal/index"
	"deepweb/internal/query"
)

// The acceptance bar of the structured-filter path: a filtered search
// is exactly the brute-force filter of the unfiltered ranking — same
// documents, bit-identical score bits, exact Total, tiling pagination
// — across shard counts, on a cold engine, through the snapshot
// boundary, and through the result cache. Run with -race.

// filterCases pairs queries with predicate sets that resolve against
// the surfaced corpus's real annotations (make/minprice/maxprice/
// city/year from the form bindings) and its text tokens.
func filterCases(t *testing.T) []struct {
	q     string
	preds []query.Predicate
} {
	t.Helper()
	return []struct {
		q     string
		preds []query.Predicate
	}{
		{"used ford focus", []query.Predicate{query.Eq("make", "ford")}},
		{"used ford focus", []query.Predicate{mustPred(t, "price<9000")}},
		{"used ford focus", []query.Predicate{mustPred(t, "year:2004..2007")}},
		{"homes in seattle", []query.Predicate{query.Eq("city", "seattle")}},
		{"used ford focus", []query.Predicate{query.Eq("make", "ford"), mustPred(t, "price<12000")}},
		{"nurse jobs", []query.Predicate{mustPred(t, "salary>=40000")}},
		{"used ford focus", []query.Predicate{query.Eq("make", "zzz-no-such-make")}},
	}
}

// bruteFilter replays the matcher over an unfiltered ranking the slow,
// obviously-correct way: look up each hit's annotations and document
// row and keep the survivors in rank order.
func bruteFilter(e *Engine, preds []query.Predicate, unfiltered SearchResponse) []SearchResponseResult {
	m := query.NewMatcher(preds)
	var out []SearchResponseResult
	for _, r := range unfiltered.Results {
		d := e.Index.Doc(r.DocID)
		if m.Match(e.Index.AnnotationsOf(r.DocID), d.Title, d.Text) {
			out = append(out, SearchResponseResult{r.DocID, r.Score})
		}
	}
	return out
}

// SearchResponseResult is the (id, score-bits) projection the
// equivalence assertions compare on.
type SearchResponseResult struct {
	DocID int
	Score float64
}

func project(resp SearchResponse) []SearchResponseResult {
	out := make([]SearchResponseResult, len(resp.Results))
	for i, r := range resp.Results {
		out[i] = SearchResponseResult{r.DocID, r.Score}
	}
	return out
}

func assertSameRanking(t *testing.T, ctxMsg string, got, want []SearchResponseResult) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d hits, want %d", ctxMsg, len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s: rank %d: %+v, want %+v (score bits must be identical)", ctxMsg, i, got[i], want[i])
		}
	}
}

func TestFilteredSearchEqualsBruteForce(t *testing.T) {
	const exhaustive = 10000
	ctx := context.Background()
	for _, shards := range []int{1, 4, 16} {
		cold := surfacedEngine(t, shards)

		dir := t.TempDir()
		if err := cold.Save(dir); err != nil {
			t.Fatalf("shards=%d: save: %v", shards, err)
		}
		loaded, err := Load(dir)
		if err != nil {
			t.Fatalf("shards=%d: load: %v", shards, err)
		}

		cached := surfacedEngine(t, shards)
		cached.EnableResultCache(256)

		nontrivial := false
		for name, e := range map[string]*Engine{"cold": cold, "snapshot": loaded, "cached": cached} {
			for _, c := range filterCases(t) {
				msg := name + " " + c.q + " | " + query.Key(c.preds)
				unfiltered, err := e.Search(ctx, SearchRequest{Query: c.q, K: exhaustive})
				if err != nil {
					t.Fatalf("shards=%d %s: unfiltered: %v", shards, msg, err)
				}
				want := bruteFilter(e, c.preds, unfiltered)
				if n := len(want); n > 0 && n < unfiltered.Total {
					nontrivial = true
				}

				filtered, err := e.Search(ctx, SearchRequest{Query: c.q, K: exhaustive, Filters: c.preds})
				if err != nil {
					t.Fatalf("shards=%d %s: filtered: %v", shards, msg, err)
				}
				if filtered.Total != len(want) {
					t.Fatalf("shards=%d %s: Total %d, want %d", shards, msg, filtered.Total, len(want))
				}
				assertSameRanking(t, msg, project(filtered), want)

				// Pagination tiles the same canonical filtered ordering.
				var tiled []SearchResponseResult
				for offset := 0; offset < filtered.Total; offset += 3 {
					page, err := e.Search(ctx, SearchRequest{Query: c.q, K: 3, Offset: offset, Filters: c.preds})
					if err != nil {
						t.Fatalf("shards=%d %s: page offset %d: %v", shards, msg, offset, err)
					}
					if page.Total != filtered.Total {
						t.Fatalf("shards=%d %s: page total %d, want %d", shards, msg, page.Total, filtered.Total)
					}
					tiled = append(tiled, project(page)...)
				}
				assertSameRanking(t, msg+" (tiled)", tiled, want)
			}
		}
		if !nontrivial {
			t.Fatalf("shards=%d: no filter case produced a proper non-empty subset; the property test is vacuous", shards)
		}

		// The cached engine has now filled entries: a repeat of every
		// filtered case must be a hit and stay bit-identical to the cold
		// engine's truth.
		for _, c := range filterCases(t) {
			req := SearchRequest{Query: c.q, K: exhaustive, Filters: c.preds}
			want, err := cold.Search(ctx, req)
			if err != nil {
				t.Fatal(err)
			}
			got, err := cached.Search(ctx, req)
			if err != nil {
				t.Fatalf("shards=%d: cached repeat: %v", shards, err)
			}
			if !got.Cached {
				t.Fatalf("shards=%d: filtered repeat of %q not served from cache", shards, c.q)
			}
			if got.Total != want.Total {
				t.Fatalf("shards=%d: cached filtered total %d, want %d", shards, got.Total, want.Total)
			}
			assertSameRanking(t, "cached "+c.q, project(got), project(want))
		}
	}
}

// Host means url.Parse's Host, exactly: userinfo is not part of it, a
// path never is, and a URL that does not parse is on no host. Each
// case is a way a prefix match on the text after "://" got it wrong.
func TestSearchHostIsURLParseHost(t *testing.T) {
	e := newEngine()
	for _, u := range []string{
		"http://u@h.example/p",
		"http://h.example/p/q",
		"http://h.example/%zz",
		"http://h.example/ok",
	} {
		e.Index.Add(index.Doc{URL: u, Text: "ford focus"})
	}
	for _, c := range []struct {
		host string
		want []string
	}{
		{"h.example", []string{"http://h.example/ok", "http://h.example/p/q", "http://u@h.example/p"}},
		{"h.example/p", nil},
		{"u@h.example", nil},
	} {
		resp, err := e.Search(context.Background(), SearchRequest{Query: "ford focus", K: 10, Host: c.host})
		if err != nil {
			t.Fatal(err)
		}
		var got []string
		for _, r := range resp.Results {
			got = append(got, r.URL)
		}
		slices.Sort(got)
		if resp.Total != len(c.want) || !slices.Equal(got, c.want) {
			t.Fatalf("host=%q: total %d, hits %q; want %q", c.host, resp.Total, got, c.want)
		}
	}
}
