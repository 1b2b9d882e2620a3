package engine

import (
	"context"
	"fmt"
	"maps"
	"math"
	"math/rand"
	"strings"
	"testing"

	"deepweb/internal/index"
	"deepweb/internal/query"
	"deepweb/internal/textutil"
)

// TestEngineFollowsOracle drives the engine through seeded sequences of
// operations and, after every step, checks the corpus id by id and a
// fixed probe set exactly against the model (model_test.go): ids, URLs,
// titles, sources, score bits and totals. The operations:
//
//   - ingest: batches committed through Builder.AddPreparedBatch (ingest
//     in bulk_test.go) into the sequence's one builder, then published
//     as a new engine over its Freeze, the result cache re-armed when
//     it is on; with annotations and duplicate URLs — within the
//     batch and of indexed documents — generated in no URL order, at a
//     drawn batch size. A duplicate inside one batch meets the index's
//     own rule: the first occurrence wins, with its annotations. The
//     annotations take every shape Annotate meets: attributes and
//     values never seen before, an empty value, a second spelling of
//     an attribute's name;
//   - save: Save → Load on a drawn worker count. Save writes the index's
//     own segment count, drawn from {1, 4, 16} when the sequence starts
//     and by every bulkbuild;
//   - bulkbuild: BulkBuild → Load of the corpus, each document with the
//     annotations it was ingested with, at a drawn shard count;
//   - cache: the result cache on or off. While it is on, every probe
//     runs twice, the second pass must come from the cache, and every
//     page handed out is scribbled over before the next search. Even
//     seeds arm it right after the first ingest, so the ingests run
//     under it.
//
// A failure prints the seed, the operations up to the failing step, the
// first differing probe with both answers, and the -run pattern that
// replays that seed alone.
func TestEngineFollowsOracle(t *testing.T) {
	const seeds, steps = 6, 26
	seen := &oracleSeen{ops: map[string]int{}, cached: map[string]int{}}
	for seed := int64(1); seed <= seeds; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			o := newOracle(t, seed, seen)
			o.step(o.draw("ingest"))
			if seed%2 == 0 {
				o.step(&oracleOp{kind: "cache", on: true})
			}
			for i := 1; i < steps; i++ {
				o.step(o.draw("ingest", "ingest", "ingest", "save", "bulkbuild", "bulkbuild", "cache"))
			}
			seen.sequences++
		})
	}
	if seen.sequences < seeds {
		return // a -run pattern picked some seeds; the census needs all
	}
	for _, kind := range []string{"ingest", "save", "bulkbuild", "cache"} {
		if seen.ops[kind] == 0 {
			t.Errorf("no sequence ran a %s", kind)
		}
	}
	census := fmt.Sprintf("ops %v, with the cache on %v; %d annotated probes past the re-rank depth, "+
		"%d filters admitting a proper subset, %d cache hits", seen.ops, seen.cached, seen.reranked, seen.filtered, seen.cacheHits)
	if seen.reranked == 0 || seen.filtered == 0 || seen.cacheHits == 0 {
		t.Errorf("vacuous: %s", census)
	}
	t.Log(census)
}

// oracle runs one seeded sequence against an engine and the model.
type oracle struct {
	t      *testing.T
	seed   int64
	r      *rand.Rand
	b      *index.Builder // every ingest commits here
	e      *Engine        // what the probes search: b's last Freeze, or a load
	m      model
	cache  bool
	ops    []string // what ran so far, for the failure report
	probes []SearchRequest
	wants  []modelAnswer // to each probe; nil once the model changes
	seen   *oracleSeen
}

type modelAnswer struct {
	hits  []index.Result
	total int
}

// oracleSeen counts what the sequences reached, so a generator that
// stops exercising a path fails instead of passing vacuously.
type oracleSeen struct {
	sequences                     int
	ops, cached                   map[string]int // cached: ops run with the cache on
	reranked, filtered, cacheHits int
}

func newOracle(t *testing.T, seed int64, seen *oracleSeen) *oracle {
	o := &oracle{t: t, seed: seed, r: rand.New(rand.NewSource(seed)), seen: seen}
	o.b = index.NewSharded(pick(o.r, []int{1, 4, 16}))
	o.e = serve(o.b)
	o.ops = append(o.ops, fmt.Sprintf("new engine, %d segments", o.e.Index.NumShards()))
	o.probes = o.probeSet()
	return o
}

// The generated vocabulary. Four makes share one length, so a query
// can mention two equally long values of one attribute; cities include
// multi-word values; numeric attributes now and then carry prose.
var (
	oracleMakes  = []string{"ford", "fiat", "audi", "saab", "honda", "toyota"}
	oracleCities = []string{"seattle", "portland", "austin", "santa fe", "new york city"}
	oracleNums   = []string{"1999", "2004", "2005", "2009", "3800", "9000", "12000.5", "40000", "1e3", "-5"}
	oracleProse  = []string{"n/a", "nan", "inf", "clean title", "call"}
	oracleWords  = []string{"used", "cars", "wagon", "cheap", "clean", "title", "homes", "home", "focus", "civic", "the", "of", "and"}
	oracleAttrs  = []string{"make", "city", "price", "minprice", "maxprice", "year", "modelyear", "notes"}
	// oracleURLs are the URL shapes beside the plain one whose host a
	// prefix match on the authority gets wrong: userinfo, a port, an
	// upper-case host, an escape url.Parse rejects (no host at all).
	oracleURLs = []string{"http://u@h%d.example/doc/%04d", "http://h%d.example:8080/doc/%04d",
		"http://H%d.EXAMPLE/doc/%04d", "http://h%d.example/doc/%%zz%04d"}
)

// oracleQueries are probed plain and annotated: head and tail terms,
// two attributes mentioned at once, two equally long values of one
// attribute, multi-word values, spellings the index conflates but
// annotated ranking does not, a duplicate term, stopwords only, empty.
var oracleQueries = []string{
	"used ford focus", "vintage", "ford seattle", "fiat ford wagon",
	"homes in santa fe", "new york city 2009", "homes in seattle", "home in seattles",
	"  Used   FORD focus!! ", "ford ford focus", "the of and", "", "zzz-no-such-term",
}

func (o *oracle) probeSet() []SearchRequest {
	var ps []SearchRequest
	for _, q := range oracleQueries {
		ps = append(ps, SearchRequest{Query: q, K: 10}, SearchRequest{Query: q, K: 10, Annotated: true})
	}
	// Pages of a query every document matches ("listing" is in every
	// title) and whose values re-rank: whole, inside, across the re-rank
	// depth, past the end, and none.
	for _, annotated := range []bool{false, true} {
		for _, pg := range [][2]int{{1000, 0}, {3, 2}, {7, 196}, {10, 5000}, {0, 0}} {
			ps = append(ps, SearchRequest{Query: "listing ford seattle", K: pg[0], Offset: pg[1], Annotated: annotated})
		}
	}
	ps = append(ps,
		SearchRequest{Query: "listing", K: 1000, Host: "h1.example"},
		SearchRequest{Query: "ford seattle", K: 10, Annotated: true, Host: "h2.example"},
		SearchRequest{Query: "listing", K: 10, Host: "nosuch.example"},
		SearchRequest{Query: "listing", K: 1000, Host: "h1.example:8080"},
		SearchRequest{Query: "listing", K: 1000, Host: "h1.example/doc"},
		SearchRequest{Query: "listing", K: 1000, Host: "u@h1.example"},
		SearchRequest{Query: "ford seattle", K: 5, Offset: 3, Annotated: true, Host: "h0.example",
			Filters: []query.Predicate{mustPred(o.t, "price<40000")}},
	)
	// Filters judged on every document: equality (a multi-word value
	// too), numeric both ways, range, type-compatible (minprice reads
	// price annotations), a conjunction, unsatisfiable, and conjunctions
	// drawn over all six operators.
	filters := [][]query.Predicate{
		{query.Eq("make", "ford")},
		{query.Eq("city", "santa fe")},
		{mustPred(o.t, "price<9000")},
		{mustPred(o.t, "price>=40000")},
		{mustPred(o.t, "year:2004..2007")},
		{mustPred(o.t, "minprice<5000")},
		{query.Eq("make", "ford"), mustPred(o.t, "price<12000")},
		{query.Eq("make", "zzz-no-such-make")},
	}
	for n := 0; n < 3; n++ {
		filters = append(filters, o.drawPreds())
	}
	for _, f := range filters {
		ps = append(ps, SearchRequest{Query: "listing", K: 1000, Filters: f})
	}
	return ps
}

func (o *oracle) drawPreds() []query.Predicate {
	attrs := append([]string{"color", "cost"}, oracleAttrs...)
	var preds []query.Predicate
	for n := 1 + o.r.Intn(3); n > 0; n-- {
		attr, lo, hi := pick(o.r, attrs), pick(o.r, oracleNums), pick(o.r, oracleNums)
		switch op := o.r.Intn(6); op {
		case 0:
			preds = append(preds, query.Eq(attr, pick(o.r, pick(o.r, [][]string{oracleMakes, oracleCities, oracleNums}))))
		case 5:
			p, err := query.Parse(attr + ":" + lo + ".." + hi)
			if err != nil {
				p = mustPred(o.t, attr+":"+hi+".."+lo)
			}
			preds = append(preds, p)
		default:
			preds = append(preds, mustPred(o.t, attr+[]string{"", "<", "<=", ">", ">="}[op]+lo))
		}
	}
	return preds
}

func mustPred(t testing.TB, s string) query.Predicate {
	t.Helper()
	p, err := query.Parse(s)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func pick[T any](r *rand.Rand, from []T) T { return from[r.Intn(len(from))] }

// oracleOp is one drawn operation, replayable on the engine and the
// model alike.
type oracleOp struct {
	kind                   string
	docs                   []index.Doc
	anns                   []map[string]string // parallel to docs
	batch, workers, shards int
	on                     bool   // cache
	want                   string // the model's outcome, when drawn ahead of the engine
}

func (op *oracleOp) String() string {
	switch op.kind {
	case "ingest":
		return fmt.Sprintf("ingest %d docs, batch %d", len(op.docs), op.batch)
	case "save":
		return fmt.Sprintf("save → load, %d workers", op.workers)
	case "bulkbuild":
		return fmt.Sprintf("bulkbuild → load, %d shards, batch %d, %d workers", op.shards, op.batch, op.workers)
	case "cache":
		return fmt.Sprintf("cache on=%v", op.on)
	}
	return op.kind
}

// draw draws one operation of the given kinds that applies to the
// model's current corpus.
func (o *oracle) draw(kinds ...string) *oracleOp {
	r := o.r
	for {
		op := &oracleOp{kind: pick(r, kinds)}
		switch op.kind {
		case "ingest":
			op.batch = pick(r, []int{1, 6, 64})
			for n := 1 + r.Intn(60); n > 0; n-- {
				d, anns := o.drawDoc(op.docs)
				op.docs, op.anns = append(op.docs, d), append(op.anns, anns)
			}
		case "bulkbuild":
			if len(o.m.docs) == 0 {
				continue
			}
			op.shards, op.batch, op.workers = pick(r, []int{1, 4, 16}), pick(r, []int{7, 64}), 1+r.Intn(3)
			for _, d := range o.m.docs {
				op.docs, op.anns = append(op.docs, d.Doc), append(op.anns, maps.Clone(d.given))
			}
		case "save":
			op.workers = 1 + r.Intn(3)
		case "cache":
			op.on = !o.cache
		}
		return op
	}
}

// drawDoc draws a document for an ingest whose batch so far is batch.
func (o *oracle) drawDoc(batch []index.Doc) (index.Doc, map[string]string) {
	r := o.r
	h, n := r.Intn(3), r.Intn(10000)
	u := fmt.Sprintf("http://h%d.example/doc/%04d", h, n)
	if r.Intn(8) == 0 {
		u = fmt.Sprintf(pick(r, oracleURLs), h, n)
	}
	switch n := r.Intn(10); {
	case n == 0 && len(o.m.docs) > 0:
		u = o.m.docs[r.Intn(len(o.m.docs))].URL
	case n == 1 && len(batch) > 0:
		u = pick(r, batch).URL
	}
	var words []string
	for n := 3 + r.Intn(9); n > 0; n-- {
		words = append(words, pick(r, pick(r, [][]string{oracleMakes, oracleCities, oracleNums, oracleWords})))
	}
	if r.Intn(30) == 0 {
		words = append(words, "vintage") // the tail term
	}
	d := index.Doc{URL: u, Title: "listing " + pick(r, oracleMakes), Text: strings.Join(words, " ")}
	if r.Intn(3) > 0 {
		d.Source = fmt.Sprintf("form-%d", r.Intn(3))
	}
	if r.Intn(4) == 0 {
		return d, nil
	}
	anns := map[string]string{}
	if r.Intn(5) < 3 {
		anns["make"] = o.drawValue("make")
	}
	if r.Intn(2) == 0 {
		anns["city"] = o.drawValue("city")
	}
	for n := r.Intn(3); n > 0; n-- {
		attr := pick(r, oracleAttrs)
		anns[attr] = o.drawValue(attr)
	}
	// Now and then an attribute or a value no dictionary holds yet, an
	// empty value Annotate ignores, or a second spelling of an
	// attribute's name, of which the greater key's value is kept.
	switch attr := pick(r, oracleAttrs); r.Intn(8) {
	case 0:
		anns[fmt.Sprintf("late%d", r.Intn(1000))] = fmt.Sprintf("late value %d", r.Intn(1000))
	case 1:
		anns["price"] = fmt.Sprint(70000 + r.Intn(10000))
	case 2:
		anns["make"] = ""
	case 3:
		anns[" "+strings.ToUpper(attr)] = o.drawValue(attr)
	}
	return d, anns
}

func (o *oracle) drawValue(attr string) string {
	r := o.r
	var v string
	switch attr {
	case "make":
		v = pick(r, oracleMakes)
	case "city":
		v = pick(r, oracleCities)
	default:
		v = pick(r, oracleNums)
		if r.Intn(4) == 0 {
			v = pick(r, oracleProse)
		}
	}
	if r.Intn(8) == 0 {
		v = " " + strings.ToUpper(v) // Annotate lower-cases and trims
	}
	return v
}

// onModel applies op to m and returns the outcome the engine must
// report.
func (op *oracleOp) onModel(m *model) string {
	if op.kind != "ingest" {
		return ""
	}
	added := 0
	for i, d := range op.docs {
		if m.add(d, op.anns[i]) {
			added++
		}
	}
	return fmt.Sprintf("added=%d duplicates=%d", added, len(op.docs)-added)
}

// onEngine applies op to the engine and returns its outcome.
func (o *oracle) onEngine(op *oracleOp) string {
	ctx, e := context.Background(), o.e
	switch op.kind {
	case "ingest":
		added, dups := ingest(o.b, &docSource{op.docs, op.anns}, op.batch)
		o.e = serve(o.b)
		if o.cache {
			o.e.EnableResultCache(256)
		}
		return fmt.Sprintf("added=%d duplicates=%d", added, dups)
	case "save":
		dir := o.t.TempDir()
		prev := DefaultWorkers
		DefaultWorkers = op.workers
		err := e.Save(dir, nil)
		DefaultWorkers = prev
		if err != nil {
			return "error: " + err.Error()
		}
		if e.Generation == 0 {
			return "Save adopted no generation"
		}
		return o.load(dir, op.workers, e.Generation)
	case "bulkbuild":
		dir := o.t.TempDir()
		opts := BulkBuildOptions{Docs: len(op.docs), Shards: op.shards, Batch: op.batch, SpillDocs: 100, Workers: op.workers}
		if _, err := BulkBuild(ctx, &docSource{op.docs, op.anns}, dir, opts); err != nil {
			return "error: " + err.Error()
		}
		return o.load(dir, op.workers, 0)
	case "cache":
		o.cache = op.on
		e.EnableResultCache(0)
		if op.on {
			e.EnableResultCache(256)
		}
	}
	return ""
}

// load replaces the engine with one Load decodes from dir on the given
// worker count; saved, when nonzero, is the generation Save adopted.
func (o *oracle) load(dir string, workers int, saved uint32) string {
	prev := DefaultWorkers
	DefaultWorkers = workers
	e, err := Load(dir)
	DefaultWorkers = prev
	if err != nil {
		return "error: " + err.Error()
	}
	if e.Generation == 0 || saved != 0 && e.Generation != saved {
		return fmt.Sprintf("loaded generation %08x, saved %08x", e.Generation, saved)
	}
	if o.cache {
		e.EnableResultCache(256)
	}
	o.e = e
	return ""
}

// docSource streams documents and their annotations as a BulkSource.
type docSource struct {
	docs []index.Doc
	anns []map[string]string
}

func (s *docSource) Next() (index.Doc, map[string]string, bool) {
	if len(s.docs) == 0 {
		return index.Doc{}, nil, false
	}
	d, anns := s.docs[0], s.anns[0]
	s.docs, s.anns = s.docs[1:], s.anns[1:]
	return d, anns, true
}

// step runs one operation on the model and the engine, then checks.
func (o *oracle) step(op *oracleOp) {
	o.t.Helper()
	o.apply(op)
	o.check()
}

func (o *oracle) apply(op *oracleOp) {
	o.t.Helper()
	o.ops = append(o.ops, op.String())
	o.seen.ops[op.kind]++
	if o.cache {
		o.seen.cached[op.kind]++
	}
	want := op.onModel(&o.m)
	if op.kind == "ingest" {
		o.wants = nil
	}
	if got := o.onEngine(op); got != want {
		o.fail("%s: engine %s, model %s", op.kind, got, want)
	}
}

// check compares the corpus, then every probe, with the model.
func (o *oracle) check() {
	o.t.Helper()
	ix, n := o.e.Index, len(o.m.docs)
	if ix.Len() != n {
		o.fail("index holds %d documents, model %d", ix.Len(), n)
	}
	for id, d := range o.m.docs {
		if got := ix.Doc(id); got != d.Doc {
			o.fail("doc %d is %+v, model %+v", id, got, d.Doc)
		}
		if got := ix.AnnotationsOf(id); !maps.Equal(got, d.anns) {
			o.fail("doc %d is annotated %v, model %v", id, got, d.anns)
		}
		if !o.b.Has(d.URL) {
			o.fail("Has(%q) = false for doc %d", d.URL, id)
		}
	}
	for _, q := range oracleQueries {
		for _, tok := range textutil.Tokenize(q) {
			want := 0
			if terms := textutil.StemmedTokens(tok); len(terms) > 0 {
				want = o.m.df(terms[0])
			}
			if got := ix.DF(tok); got != want {
				o.fail("DF(%q) = %d, model %d", tok, got, want)
			}
		}
	}

	passes := 1
	if o.cache {
		passes = 2
	}
	if o.wants == nil {
		for _, req := range o.probes {
			hits, total := o.m.search(req)
			o.wants = append(o.wants, modelAnswer{hits, total})
		}
	}
	for pi, req := range o.probes {
		want, total := o.wants[pi].hits, o.wants[pi].total
		for pass := 0; pass < passes; pass++ {
			resp, err := o.e.Search(context.Background(), req)
			if err != nil {
				o.fail("probe %s: %v", describe(req), err)
			}
			if d := diffAnswers(resp.Results, resp.Total, want, total); d != "" {
				o.fail("probe %s (pass %d):\n%s", describe(req), pass, d)
			}
			if resp.Generation != o.e.Generation {
				o.fail("probe %s: generation %08x, engine %08x", describe(req), resp.Generation, o.e.Generation)
			}
			if pass == 1 {
				if !resp.Cached {
					o.fail("probe %s: a repeat with the cache on was not served from it", describe(req))
				}
				o.seen.cacheHits++
			}
			for i := range resp.Results {
				resp.Results[i].URL, resp.Results[i].Score = "scribbled", -1
			}
		}
		switch {
		case len(req.Filters) > 0 && total > 0 && total < n:
			o.seen.filtered++
		case req.Annotated && total > modelRerankDepth && len(o.m.mentions(req.Query)) > 0:
			o.seen.reranked++
		}
	}
}

func (o *oracle) fail(format string, args ...any) {
	o.t.Helper()
	o.t.Fatalf("seed %d: %s\nops:\n  %s\nreplay: go test ./internal/engine -run '^%s$'",
		o.seed, fmt.Sprintf(format, args...), strings.Join(o.ops, "\n  "), strings.ReplaceAll(o.t.Name(), "/", "$/^"))
}

func describe(req SearchRequest) string {
	return fmt.Sprintf("{q=%q k=%d offset=%d annotated=%v host=%q filters=%q}",
		req.Query, req.K, req.Offset, req.Annotated, req.Host, query.Key(req.Filters))
}

// answer renders a page and its total, every field compared.
func answer(hits []index.Result, total int) string {
	var b strings.Builder
	fmt.Fprintf(&b, "total=%d", total)
	for _, h := range hits {
		fmt.Fprintf(&b, " %d:%s:%q:%q:%x", h.DocID, h.URL, h.Title, h.Source, math.Float64bits(h.Score))
	}
	return b.String()
}

// diffAnswers describes where the engine's answer leaves the model's,
// or returns "" when they agree.
func diffAnswers(got []index.Result, gotTotal int, want []index.Result, wantTotal int) string {
	for i := 0; i < max(len(got), len(want)); i++ {
		if i >= len(got) || i >= len(want) || got[i] != want[i] || math.Float64bits(got[i].Score) != math.Float64bits(want[i].Score) {
			return fmt.Sprintf("  first difference at rank %d\n  engine: %s\n  model:  %s",
				i, clip(answer(got[min(i, len(got)):], gotTotal)), clip(answer(want[min(i, len(want)):], wantTotal)))
		}
	}
	if gotTotal != wantTotal {
		return fmt.Sprintf("  engine total %d, model %d", gotTotal, wantTotal)
	}
	return ""
}

// clip keeps a rendered answer to a readable length.
func clip(s string) string {
	if len(s) > 600 {
		return s[:600] + " …"
	}
	return s
}
