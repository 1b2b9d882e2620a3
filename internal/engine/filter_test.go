package engine

import (
	"context"
	"slices"
	"testing"

	"deepweb/internal/index"
)

// Host means url.Parse's Host, exactly: userinfo is not part of it, a
// path never is, and a URL that does not parse is on no host. Each
// case is a way a prefix match on the text after "://" got it wrong.
func TestSearchHostIsURLParseHost(t *testing.T) {
	b := index.New()
	for _, u := range []string{
		"http://u@h.example/p",
		"http://h.example/p/q",
		"http://h.example/%zz",
		"http://h.example/ok",
	} {
		b.Add(index.Doc{URL: u, Text: "ford focus"})
	}
	e := serve(b)
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
