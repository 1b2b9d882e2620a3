package query

import (
	"context"
	"fmt"
	"reflect"
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
// of type-compatible names and awkward values (nan, inf, -0, 0x1p-2
// and +5 among them, for the dictionaries' numeric readings), second
// spellings of a name, empty values, and now and then an attribute
// never drawn before or a price past every drawn value — the set TopK
// admits through the Filter the engine builds (Matcher.Filter: each
// schema judged once from its columns' ranges, the candidates of a
// judge-each schema by Bound.Match) must equal, document by document,
// the set Matcher.Match admits from AnnotationsOf. It must do so on the
// index the documents were annotated into, whose dictionaries and
// ranges were written live, and on a second index holding the same
// documents whose tables were installed, as a load installs them: each
// document's annotations fed to an AnnBuilder in doc-id order — whose
// tables must equal the live ones — and its Tables handed to
// InstallAnnotations. prog is read a byte at a time (zero once spent)
// to draw the corpus (fuzzCorpus); preds is the predicate string,
// split by Extract.
func FuzzBoundMatchesReference(f *testing.F) {
	for _, seed := range boundSeeds {
		f.Add(seed.prog, seed.preds)
	}
	f.Fuzz(func(t *testing.T, prog []byte, preds string) {
		_, ps := Extract(preds)
		m := NewMatcher(ps)
		if m == nil {
			return
		}
		ix, installed := fuzzCorpus(t, prog)
		ref, want := make([]bool, ix.Len()), 0
		for id := range ref {
			d := ix.Doc(id)
			if ref[id] = m.Match(ix.AnnotationsOf(id), d.Title, d.Text); ref[id] {
				want++
			}
		}
		for name, served := range map[string]*index.Index{"interned": ix, "installed": installed} {
			hits, total, err := served.TopK(context.Background(), "listing", 1000, 0, m.Filter(served, ""))
			if err != nil {
				t.Fatal(err)
			}
			admitted := map[int]bool{}
			for _, h := range hits {
				admitted[h.DocID] = true
			}
			for id := range ref {
				if ref[id] != admitted[id] {
					t.Fatalf("%s: %v on doc %d (annotations %v, text %q): Bound admits %v, Matcher.Match %v",
						name, ps, id, ix.AnnotationsOf(id), ix.Doc(id).Text, admitted[id], ref[id])
				}
			}
			if total != want || len(hits) != want {
				t.Fatalf("%s: %v: TopK total %d, %d hits; the reference admits %d", name, ps, total, len(hits), want)
			}
		}
	})
}

// boundSeeds seed FuzzBoundMatchesReference. Where verdict is set, it
// is the plan of document 0's schema, on the live and the installed
// index (TestBoundSeedVerdicts): the seeds reach every verdict.
var boundSeeds = []struct {
	prog    []byte
	preds   string
	verdict index.Verdict
}{
	{prog: []byte{3, 2, 0, 0, 1, 6, 1, 2, 1, 1, 1, 2, 1, 1, 5, 0, 1, 1, 1, 4, 2}, preds: "price<10000"},
	{prog: []byte{4, 1, 3, 2, 2, 5, 1, 7, 1, 0, 9, 2, 3, 2, 1, 0, 1, 1, 2, 6, 5}, preds: "make:ford year:1990..2006"},
	{prog: []byte{5, 2, 1, 1, 3, 4, 2, 8, 2, 9, 1, 1, 0, 0, 6, 3, 1, 2, 3, 1, 1, 4}, preds: "salary>=1000 maxprice<=3800"},
	{prog: []byte{2, 3, 0, 12, 1, 13, 2, 14, 3, 1, 1, 2, 1, 7, 0, 11}, preds: "city:santa minprice>-1"},
	{prog: []byte{6, 0, 1, 0, 2, 5, 3, 3, 0, 10, 4, 2, 1, 1, 1, 3, 1, 2}, preds: "year>1e3 price:-0..inf"},
	// Admit all: every price is a number under the bound.
	{prog: []byte{2, 0, 1, 0, 5, 0, 0, 1, 0, 8, 0, 0, 1, 0, 4, 0}, preds: "price<10000", verdict: index.AdmitAll},
	// Reject all by range: every year is a number below the bound.
	{prog: []byte{1, 0, 2, 4, 8, 0, 5, 0, 0, 2, 4, 7, 0, 6, 0}, preds: "year>2010", verdict: index.RejectAll},
	// Reject all by an equality value no document carries (the text
	// says ford, but the annotation decides).
	{prog: []byte{1, 1, 9, 1, 6, 9, 0, 0, 1, 9, 10, 0}, preds: "make:audi", verdict: index.RejectAll},
	// A column holding nan: no admit-all, and nan reads as a number
	// that rejects, so a bound no other price meets rejects all.
	{prog: []byte{2, 0, 1, 0, 0, 0, 0, 1, 0, 5, 0, 0, 1, 0, 4, 0}, preds: "price<10000", verdict: index.JudgeEach},
	{prog: []byte{2, 0, 1, 0, 0, 0, 0, 1, 0, 5, 0, 0, 1, 0, 4, 0}, preds: "price>5000", verdict: index.RejectAll},
	// A column mixing numbers and words: judged each, the words by the
	// text.
	{prog: []byte{2, 0, 1, 0, 5, 0, 1, 14, 1, 0, 14, 0, 1, 7, 1, 0, 9, 0}, preds: "price<10000", verdict: index.JudgeEach},
	{prog: []byte{2, 0, 1, 0, 5, 0, 1, 14, 1, 0, 14, 0, 1, 7, 1, 0, 9, 0}, preds: "price>5000", verdict: index.JudgeEach},
	// Two type-compatible columns: maxprice admits all though minprice
	// admits none; both miss a higher bound; a lower one is judged.
	{prog: []byte{1, 0, 2, 1, 8, 2, 6, 0, 0, 2, 1, 5, 2, 6, 0}, preds: "price>=5000", verdict: index.AdmitAll},
	{prog: []byte{1, 0, 2, 1, 8, 2, 6, 0, 0, 2, 1, 5, 2, 6, 0}, preds: "price>20000", verdict: index.RejectAll},
	{prog: []byte{1, 0, 2, 1, 8, 2, 6, 0, 0, 2, 1, 5, 2, 6, 0}, preds: "price<3000", verdict: index.JudgeEach},
}

// fuzzCorpus draws FuzzBoundMatchesReference's corpus from prog, read a
// byte at a time (zero once spent): the live-annotated index, and the
// same documents with the tables an AnnBuilder built installed.
func fuzzCorpus(t *testing.T, prog []byte) (live, installed *index.Index) {
	t.Helper()
	attrs := []string{"price", "minprice", "maxprice", "salary", "year", "modelyear", "make", "city", " Price", "MAKE"}
	values := []string{"nan", "inf", "-inf", "-0", "1e3", "3800", "12000.5", "2005", "1999", "ford", "Ford ",
		"santa fe", "", "  ", "n/a", "0x1p-2", "+5", "1,000"}
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
		switch next() % 4 {
		case 1:
			anns[fmt.Sprintf("late%d", next()%3)] = values[next()%len(values)]
		case 2:
			anns["price"] = fmt.Sprint(70000 + next())
		}
		return anns
	}
	lb, ib, b := index.New(), index.New(), index.NewAnnBuilder()
	n := 1 + next()%6
	for i := 0; i < n; i++ {
		var words []string
		for w := next() % 4; w > 0; w-- {
			words = append(words, values[next()%len(values)])
		}
		d := index.Doc{URL: fmt.Sprintf("http://h.example/%d", i), Title: "listing", Text: strings.Join(words, " ")}
		id, _ := lb.Add(d)
		ib.Add(d)
		anns := draw()
		lb.Annotate(id, anns)
		b.Annotate(id, anns)
	}
	// The store is written as a builder builds: the live tables are
	// the builder's, value for value.
	cols, schemas := b.Tables()
	live = lb.Freeze()
	if liveCols, liveSchemas := live.ExportAnnotations(); !reflect.DeepEqual(liveCols, cols) || !reflect.DeepEqual(liveSchemas, schemas) {
		t.Fatalf("live tables %+v %+v, an AnnBuilder's %+v %+v", liveCols, liveSchemas, cols, schemas)
	}
	if err := ib.InstallAnnotations(cols, schemas, live.Len()); err != nil {
		t.Fatal(err)
	}
	return live, ib.Freeze()
}

// The fuzz seeds named for a verdict reach it: document 0's schema
// plans to it on the live index and on the installed one.
func TestBoundSeedVerdicts(t *testing.T) {
	for _, seed := range boundSeeds {
		if seed.verdict == 0 {
			continue
		}
		_, ps := Extract(seed.preds)
		live, installed := fuzzCorpus(t, seed.prog)
		for name, ix := range map[string]*index.Index{"interned": live, "installed": installed} {
			s := ix.AnnotationTables().Schema[0]
			if got := NewMatcher(ps).Bind(ix).Plan(s); got != seed.verdict {
				t.Errorf("%s: %q on %v: schema %d plans to %d, want %d", name, seed.preds, seed.prog, s, got, seed.verdict)
			}
		}
	}
}
