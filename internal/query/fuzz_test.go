package query

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"deepweb/internal/index"
)

// FuzzQueryParse feeds arbitrary strings through the DSL's three entry
// points. Parse∘String is the identity on everything Parse accepts;
// Extract never panics, never turns keyword text into an error — every
// whitespace-delimited token comes back either as keyword text or as a
// predicate Parse accepts, none is lost — and Key sees through order
// and repetition.
func FuzzQueryParse(f *testing.F) {
	for _, seed := range []string{
		"",
		"make:ford",
		"price<10000",
		"salary>=40000",
		"year:2005..2009",
		"year:2005.0..2009",
		"used cars price<10000 make:ford year:2005..2009",
		"re:invent 3:2 a<b x>=",
		"City:Santa Fe",
		"price<nan",
		"a:-inf..+inf",
		"price<0x1p-2",
		"a:b:c",
		"a:1..2..3",
		"ŠKODA:Octavia \xff\xfe:\x80",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, s string) {
		if p, err := Parse(s); err == nil {
			back, err := Parse(p.String())
			if err != nil {
				t.Fatalf("Parse(%q) = %+v, but its String %q does not parse: %v", s, p, p.String(), err)
			}
			if back != p {
				t.Fatalf("Parse(%q) = %+v, Parse(String) = %+v", s, p, back)
			}
		}

		rest, preds := Extract(s)
		fields := strings.Fields(s)
		if got := len(strings.Fields(rest)) + len(preds); got != len(fields) {
			t.Fatalf("Extract(%q) = (%q, %d predicates): %d tokens in, %d out", s, rest, len(preds), len(fields), got)
		}
		for _, p := range preds {
			if _, err := Parse(p.String()); err != nil {
				t.Fatalf("Extract(%q) produced %+v, which Parse rejects: %v", s, p, err)
			}
		}

		if len(preds) == 0 {
			return
		}
		key := Key(preds)
		shuffled := append([]Predicate(nil), preds[1:]...)
		shuffled = append(shuffled, preds[0], preds[len(preds)-1]) // rotated, last one doubled
		if got := Key(shuffled); got != key {
			t.Fatalf("Key(%+v) = %q, but rotated and with a duplicate it is %q", preds, key, got)
		}
	})
}

// FuzzBoundMatchesReference holds the serving path to the reference:
// over fuzzed documents — annotation maps drawn from a small alphabet
// of type-compatible names and awkward values, up to two optional
// re-annotations that change a document's attribute set — the set TopK
// admits through a Bound must equal, document by
// document, the set Matcher.Match admits from AnnotationsOf. prog is
// read a byte at a time (zero once spent) to draw the corpus; preds is
// the predicate string, split by Extract.
func FuzzBoundMatchesReference(f *testing.F) {
	for _, seed := range []struct {
		prog  []byte
		preds string
	}{
		{[]byte{3, 2, 0, 0, 1, 6, 1, 2, 1, 1, 1, 2, 1, 1, 5, 0, 1, 1, 1, 4, 2}, "price<10000"},
		{[]byte{4, 1, 3, 2, 2, 5, 1, 7, 1, 0, 9, 2, 3, 2, 1, 0, 1, 1, 2, 6, 5}, "make:ford year:1990..2006"},
		{[]byte{5, 2, 1, 1, 3, 4, 2, 8, 2, 9, 1, 1, 0, 0, 6, 3, 1, 2, 3, 1, 1, 4}, "salary>=1000 maxprice<=3800"},
		{[]byte{2, 3, 0, 12, 1, 13, 2, 14, 3, 1, 1, 2, 1, 7, 0, 11}, "city:santa minprice>-1"},
		{[]byte{6, 0, 1, 0, 2, 5, 3, 3, 0, 10, 4, 2, 1, 1, 1, 3, 1, 2}, "year>1e3 price:-0..inf"},
	} {
		f.Add(seed.prog, seed.preds)
	}
	attrs := []string{"price", "minprice", "maxprice", "salary", "year", "modelyear", "make", "city", " Price", "MAKE"}
	values := []string{"nan", "inf", "-inf", "-0", "1e3", "3800", "12000.5", "2005", "1999", "ford", "Ford ",
		"santa fe", "", "  ", "n/a", "0x1p-2", "+5", "1,000"}
	f.Fuzz(func(t *testing.T, prog []byte, preds string) {
		_, ps := Extract(preds)
		m := NewMatcher(ps)
		if m == nil {
			return
		}
		next := func() int {
			if len(prog) == 0 {
				return 0
			}
			b := prog[0]
			prog = prog[1:]
			return int(b)
		}
		draw := func() map[string]string {
			anns := map[string]string{}
			for n := next() % 4; n > 0; n-- {
				anns[attrs[next()%len(attrs)]] = values[next()%len(values)]
			}
			return anns
		}
		ix := index.New()
		n := 1 + next()%6
		for i := 0; i < n; i++ {
			var words []string
			for w := next() % 4; w > 0; w-- {
				words = append(words, values[next()%len(values)])
			}
			id, _ := ix.Add(index.Doc{URL: fmt.Sprintf("http://h.example/%d", i), Title: "listing", Text: strings.Join(words, " ")})
			ix.Annotate(id, draw())
		}
		for range 2 {
			if next()%2 == 1 {
				ix.Annotate(next()%n, draw())
			}
		}

		hits, total, err := ix.TopK(context.Background(), "listing", 1000, 0, &index.Filter{Match: m.Bind(ix).Match})
		if err != nil {
			t.Fatal(err)
		}
		admitted := map[int]bool{}
		for _, h := range hits {
			admitted[h.DocID] = true
		}
		want := 0
		for id := 0; id < ix.Len(); id++ {
			d, anns := ix.Doc(id), ix.AnnotationsOf(id)
			ref := m.Match(anns, d.Title, d.Text)
			if ref != admitted[id] {
				t.Fatalf("%v on doc %d (annotations %v, text %q): Bound admits %v, Matcher.Match %v", ps, id, anns, d.Text, admitted[id], ref)
			}
			if ref {
				want++
			}
		}
		if total != want || len(hits) != want {
			t.Fatalf("%v: TopK total %d, %d hits; the reference admits %d", ps, total, len(hits), want)
		}
	})
}
