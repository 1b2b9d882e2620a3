package main

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"strings"
	"sync"
	"time"

	"deepweb/internal/bulkgen"
	"deepweb/internal/engine"
	"deepweb/internal/index"
	"deepweb/internal/query"
	"deepweb/internal/store"
	"deepweb/internal/textutil"
)

// span is one call into one layer. Spans of one query share its id;
// Parent is the index of the span this one's work is part of, -1 for
// a root. Times are nanoseconds since the trace began.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start"`
	End    int64  `json:"end"`
	Parent int    `json:"parent"`
	Query  int    `json:"query"`
}

// tracer keeps spans in memory until the run ends. The program under
// test is not instrumented: every span is recorded here, around a call
// into a layer's public entry point.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// add records a finished span and returns its index.
func (t *tracer) add(name string, parent, q int, start, end time.Time) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{name, start.Sub(t.t0).Nanoseconds(), end.Sub(t.t0).Nanoseconds(), parent, q})
	return len(t.spans) - 1
}

// do times fn as one span and returns its index and duration in µs.
func (t *tracer) do(name string, parent, q int, fn func()) (int, float64) {
	start := time.Now()
	fn()
	end := time.Now()
	return t.add(name, parent, q, start, end), float64(end.Sub(start).Nanoseconds()) / 1e3
}

func (t *tracer) write(path string) error {
	buf, err := json.Marshal(struct {
		Spans []span `json:"spans"`
	}{t.spans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, buf, 0o644)
}

// layered pushes n requests, evenly spaced over the sequence, one at a
// time on one goroutine through successively deeper entry points — the
// loopback round trip, the handler alone, the engine alone, the index
// scan alone, the predicate sweep alone — and records a span per call.
// A layer's self time is its span minus the spans of the layers below
// it. The replay runs on the served engine: with the cache off every
// call redoes the work; with it on the engine call hits, and the
// layers below the engine, which a hit never reaches, are not called.
//
// The returned shares say where engine.search time went, summed over
// the replayed queries; README.md's separation claims are read from
// them.
func layered(ctx context.Context, tr *tracer, srv *server, e *engine.Engine, hc *http.Client, in *inputs, n int, values map[string]float64) (shares map[string]float64) {
	ix := e.Index
	d := map[string][]float64{} // per-layer durations, µs
	obs := func(name string, v float64) { d[name] = append(d[name], v) }
	var postings, candidates, evals, admitted float64
	var scanUS float64
	n = min(n, len(in.seq))
	for j := 0; j < n; j++ {
		i := j * len(in.seq) / n
		q := in.pool[in.seq[i]]
		rt, rtUS := tr.do("http.roundtrip", -1, i, func() { fetch(ctx, hc, srv.base+q.path, false) })
		obs("http.roundtrip_us", rtUS)

		var bytes int
		sv, svUS := tr.do("api.serve", rt, i, func() {
			rec := httptest.NewRecorder()
			srv.api.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, q.path, nil).WithContext(ctx))
			bytes = rec.Body.Len()
		})
		obs("api.serve_us", svUS)
		obs("http.self_us", rtUS-svUS)
		obs("api.resp_bytes", float64(bytes))

		var text string
		var preds []query.Predicate
		_, exUS := tr.do("query.extract", sv, i, func() { text, preds = query.Extract(q.q) })
		obs("query.extract_us", exUS)

		req := engine.SearchRequest{Query: text, K: pageK, Annotated: q.annotated, Host: q.host, Filters: preds}
		var resp engine.SearchResponse
		es, esUS := tr.do("engine.search", sv, i, func() { resp, _ = e.Search(ctx, req) })
		obs("engine.search_us", esUS)
		obs("api.self_us", svUS-esUS-exUS)
		if resp.Cached {
			obs("rescache.hit_us", esUS)
		}
		switch q.class {
		case classPred:
			obs("engine.search_pred_us", esUS)
		case classHost:
			obs("engine.search_host_us", esUS)
		case classAnnotated:
			obs("engine.search_annotated_us", esUS)
		}

		_, tkUS := tr.do("textutil.query_tokenize", es, i, func() { textutil.StemmedTokens(text) })
		obs("textutil.query_tokenize_us", tkUS)
		if resp.Cached {
			continue
		}

		below := 0.0 // time of the layers engine.search calls into
		if q.annotated {
			_, us := tr.do("index.annotated_topk", es, i, func() { ix.AnnotatedTopK(ctx, text, pageK, 0, nil) })
			obs("index.annotated_topk_us", us)
			below += us
		}
		total := 0
		_, scan := tr.do("index.topk", es, i, func() { _, total, _ = ix.TopK(ctx, text, pageK, 0, nil) })
		obs("index.topk_us", scan)
		if !q.annotated {
			below += scan
		}
		switch q.class {
		case classHead, classTorso, classTail:
			obs("index.topk_"+q.class+"_us", scan)
		}
		scanUS += scan
		candidates += float64(total)
		seen := map[string]bool{} // by stem; DF takes the raw token
		for _, tok := range textutil.Tokenize(text) {
			if st := textutil.StemmedTokens(tok); len(st) == 1 && !seen[st[0]] {
				seen[st[0]] = true
				postings += float64(ix.DF(tok))
			}
		}

		if m := query.NewMatcher(preds); m != nil || q.host != "" {
			all, _, _ := ix.TopK(ctx, text, max(total, 1), 0, nil)
			onHost := "http://" + q.host + "/"
			_, us := tr.do("query.match", es, i, func() {
				for _, r := range all {
					if q.host != "" && !strings.HasPrefix(r.URL, onHost) {
						continue
					}
					m.Match(ix.AnnotationsOf(r.DocID), r.Title, ix.Doc(r.DocID).Text)
				}
			})
			obs("query.match_us", us)
			below += us
			evals += float64(len(all))
			admitted += float64(resp.Total)
		}
		obs("engine.self_us", esUS-below)
	}
	for name, xs := range d {
		values[name] = median(xs)
	}
	values["index.postings_scanned"] = postings
	values["index.candidates"] = candidates
	if postings > 0 {
		values["index.ns_per_posting"] = scanUS * 1e3 / postings
	}
	values["query.match_evals"] = evals
	if evals > 0 {
		values["query.match_ns_per_eval"] = sum(d["query.match_us"]) * 1e3 / evals
		values["query.admit_ratio"] = admitted / evals
	}
	shares = map[string]float64{}
	if es := sum(d["engine.search_us"]); es > 0 {
		for _, name := range []string{"index.topk_us", "query.match_us", "index.annotated_topk_us"} {
			shares[name] = sum(d[name]) / es
		}
	}
	return shares
}

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

// tracedBuild measures the build side layer by layer: generation
// alone, tokenization alone. The whole build is buildSnapshot's.
func tracedBuild(seed int64, sz sizes, values map[string]float64) error {
	world, err := bulkgen.NewWorld(bulkgen.Spec{Seed: seed, Docs: sz.docs, Sites: corpusSites})
	if err != nil {
		return err
	}
	src := world.Source(runtime.GOMAXPROCS(0))
	sample := make([]index.Doc, 0, sz.prepareSample)
	start := time.Now()
	for {
		d, _, ok := src.Next()
		if !ok {
			break
		}
		if len(sample) < cap(sample) {
			sample = append(sample, d)
		}
	}
	values["bulkgen.gen_docs_per_s"] = float64(sz.docs) / time.Since(start).Seconds()
	start = time.Now()
	for _, d := range sample {
		index.Prepare(d)
	}
	values["index.prepare_us_per_doc"] = float64(time.Since(start).Microseconds()) / float64(len(sample))
	return nil
}

// tracedLoad repeats engine.Load's steps one at a time on one
// goroutine, into a scratch index no engine ever serves, so the parts
// add up; then times engine.Load itself the same way. The difference
// is what Load does besides them.
func tracedLoad(dir string, values map[string]float64) error {
	timed := func(name string, fn func() error) error {
		start := time.Now()
		err := fn()
		values[name] += time.Since(start).Seconds()
		return err
	}
	var seg *store.DocsSegment
	var hdr store.Header
	err := timed("store.read_docs_s", func() (err error) {
		seg, hdr, err = store.ReadDocs(store.DocsPath(dir))
		return err
	})
	if err != nil {
		return err
	}
	ix := index.NewSharded(int(hdr.Shards))
	err = timed("index.import_docs_s", func() error {
		//deepvet:allow epochsafe -- scratch index of the traced load; no engine wraps it, so no result cache can go stale
		return ix.ImportDocs(seg.Docs, seg.Lens, nil)
	})
	if err != nil {
		return err
	}
	for si := 0; si < int(hdr.Shards); si++ {
		var terms []index.TermPostings
		err := timed("store.read_postings_s", func() (err error) {
			terms, _, err = store.ReadPostings(store.PostingsPath(dir, si))
			return err
		})
		if err != nil {
			return err
		}
		err = timed("index.import_terms_s", func() error {
			//deepvet:allow epochsafe -- scratch index of the traced load; no engine wraps it, so no result cache can go stale
			return ix.ImportTerms(terms)
		})
		if err != nil {
			return err
		}
	}
	_ = timed("index.annotate_s", func() error {
		for id, anns := range seg.Anns {
			//deepvet:allow epochsafe -- scratch index of the traced load; no engine wraps it, so no result cache can go stale
			ix.Annotate(id, anns)
		}
		return nil
	})
	parts := values["store.read_docs_s"] + values["index.import_docs_s"] + values["store.read_postings_s"] +
		values["index.import_terms_s"] + values["index.annotate_s"]

	workers := engine.DefaultWorkers
	engine.DefaultWorkers = 1
	defer func() { engine.DefaultWorkers = workers }()
	err = timed("engine.load_traced_s", func() error {
		_, err := engine.Load(dir)
		return err
	})
	values["engine.load.self_s"] = values["engine.load_traced_s"] - parts
	return err
}
