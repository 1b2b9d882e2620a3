// Package index is the IR substrate: an inverted index with BM25
// ranking. Surfaced deep-web pages are inserted "like any other HTML
// page" (paper §3.2) — the index neither knows nor cares that a document
// came from a form submission, which is precisely the surfacing
// approach's architectural bet. Attribution (which form produced which
// document) is carried as opaque metadata so experiments can credit
// impact back to forms (E1).
//
// Layout: the document table (rows, lengths, the host column), the one
// term → posting-list map and the annotations. The table holds no
// string header per document: each row — URL, title, text, source — is
// an 8-byte reference into an immutable string holding rows in the docs
// segment's encoding (rows.go), decoded on demand for a hit, a ForEach
// or a text-fallback filter, with nothing allocated. A posting list
// (postings.go) is a 4-byte doc id and a 1-byte tf per posting, its tfs
// widened to 4 bytes only when one exceeds 255; a loaded segment's lists
// are slices of one doc-id array and one tf array. Shards exist only on
// disk: the index records how many postings segments a snapshot of it
// is written as, and the snapshot writer (internal/store) decides which
// segment each term lands in.
//
// A Builder writes the index: commits, each a whole batch of rows,
// postings and the annotations of the documents it adds, and a
// snapshot's imports. Its Freeze hands out, in O(1), an Index: the
// reader every query goes through, which shares every array with the
// builder and which no write reaches (see Builder.thaw), so a query
// takes no lock. Prepare, the expensive half of an insert — tokenizing
// and counting terms — runs outside the builder's lock, so an ingest
// pipeline analyzes documents in parallel and commits them at an
// ordered point, keeping doc-id assignment deterministic.
//
// Both halves run allocation-consciously: Prepare draws its tokenizer,
// term buffer and counting map from a pool and emits a compact
// term/frequency pair list; TopK scores into a pooled dense
// accumulator indexed by doc id (reset via a touched list, not a
// sweep) and selects the top k with a bounded heap instead of sorting
// every scored document.
package index

import (
	"context"
	"math"
	"slices"
	"sync"

	"deepweb/internal/textutil"
)

// Doc is a document to index.
type Doc struct {
	URL    string
	Title  string
	Text   string
	Source string // opaque attribution, e.g. the form ID that surfaced it
}

// Result is one ranked hit.
type Result struct {
	DocID  int
	URL    string
	Title  string
	Source string
	Score  float64
}

// Index is an in-memory inverted index with BM25 scoring: the reader a
// Builder's Freeze hands out. Nothing writes it, so it is safe for
// concurrent use without a lock, and every method answers the same for
// its whole life.
type Index struct {
	// segments is how many postings segments Save writes, fixed at
	// construction; it does not change how postings are held in memory.
	segments int

	rows     Rows
	lens     []int32
	totalLen int

	postings map[string]*PostingList // term -> postings in ascending doc id

	// hosts is parallel to rows: each document's host (hostOf its URL)
	// as an id in the host dictionary, 0 for no host. A host
	// restriction compares ids, so the scan never reads a URL.
	hosts     []uint32
	hostIDs   map[string]uint32 // host -> id; "" is never interned
	hostNames []string          // id -> host; hostNames[0] is ""

	ann annStore
}

// BM25 constants; the standard values.
const (
	bm25K1 = 1.2
	bm25B  = 0.75
)

// DefaultShards is the postings-segment count of a builder from New.
const DefaultShards = 16

// Prepared is a tokenized document ready to commit: the expensive part
// of an insert (tokenize, stopword, stem, count) done up front, outside
// the builder's lock. Workers prepare documents concurrently; doc ids are
// assigned only when AddPrepared runs. The term list is a compact
// parallel pair of slices — unique terms with their frequencies — so a
// buffered document costs two allocations, not a map.
type Prepared struct {
	doc   Doc
	terms []string
	tfs   []int32
	dl    int // document length in terms
}

// prepScratch is the reusable state one Prepare call needs: the
// tokenizer (with its arena and intern table), a token buffer and a
// counting map, all recycled through prepPool so steady-state Prepare
// allocates only the compact Prepared itself.
type prepScratch struct {
	tz   textutil.Tokenizer
	toks []string
	tf   map[string]int32
}

var prepPool = sync.Pool{New: func() any {
	return &prepScratch{tf: make(map[string]int32, 64)}
}}

// Prepare tokenizes a document for a later AddPrepared. It touches no
// shared state.
func Prepare(d Doc) *Prepared {
	ps := prepPool.Get().(*prepScratch)
	// Title terms count twice: cheap field boost.
	toks := ps.tz.StemmedTokensInto(ps.toks[:0], d.Title)
	nTitle := len(toks)
	toks = ps.tz.StemmedTokensInto(toks, d.Text)
	clear(ps.tf)
	for i, t := range toks {
		if i < nTitle {
			ps.tf[t] += 2
		} else {
			ps.tf[t]++
		}
	}
	p := &Prepared{
		doc:   d,
		terms: make([]string, 0, len(ps.tf)),
		tfs:   make([]int32, 0, len(ps.tf)),
		dl:    len(toks) + nTitle,
	}
	for t, n := range ps.tf {
		p.terms = append(p.terms, t)
		p.tfs = append(p.tfs, n)
	}
	ps.toks = toks[:0]
	prepPool.Put(ps)
	return p
}

// Len returns the number of indexed documents.
func (ix *Index) Len() int { return len(ix.lens) }

// Doc returns the indexed document with the given id; its fields are
// substrings of the row that holds it.
func (ix *Index) Doc(id int) Doc { return ix.rows.Doc(id) }

// DF returns the document frequency of a (raw) term after the
// standard pipeline is applied to it.
func (ix *Index) DF(term string) int {
	sc := searchPool.Get().(*searchScratch)
	qterms := sc.tz.StemmedTokensInto(sc.qterms[:0], term)
	df := 0
	if len(qterms) > 0 {
		if pl := ix.postings[qterms[0]]; pl != nil {
			df = pl.Len()
		}
	}
	sc.qterms = qterms[:0]
	searchPool.Put(sc)
	return df
}

// searchScratch is the reusable state of one TopK call: the query
// tokenizer, the dense score accumulator (indexed by doc id, reset via
// the touched list so cost tracks postings scanned, not corpus size)
// and the bounded top-k heap.
type searchScratch struct {
	tz      textutil.Tokenizer
	qterms  []string
	scores  []float64
	touched []int32
	heap    []heapEntry
	// verdicts holds, by schema id, Filter.Schema's answers so far in
	// the filtered selection loop; 0 for a schema not asked yet.
	verdicts []Verdict
}

type heapEntry struct {
	score float64
	doc   int32
}

var searchPool = sync.Pool{New: func() any { return new(searchScratch) }}

// abandonSearch is the cold bail-out of a canceled query: the pooled
// accumulator must go back clean, so the touched entries not yet
// drained — those from index from on — are zeroed before the scratch is
// released. Split out of TopK to keep the hot scoring loop small.
func abandonSearch(sc *searchScratch, scores []float64, touched []int32, from int, err error) error {
	for _, d := range touched[from:] {
		scores[d] = 0
	}
	sc.touched = touched[:0]
	return err
}

// keepPollEvery is how many candidates the filtered selection loop
// admits or rejects between looks at the context (a power of two).
const keepPollEvery = 4096

// Filter restricts a scan to the documents it admits. A nil *Filter,
// or one with neither Host nor Match set, admits every document.
type Filter struct {
	// Host admits only documents whose host — url.Parse(URL).Host, ""
	// when the URL does not parse — equals it; "" admits every host.
	// It is resolved once per scan to an id in the host column, so a
	// candidate costs one integer compare and a host the index has
	// never seen answers an empty page without scoring anything.
	Host string
	// Match, when set, admits the candidates it returns true for,
	// handed each one's doc id, after the host check. It may read the
	// index it filters — AnnotationTables and RowView are views of it
	// that stay valid — since nothing writes a reader.
	Match func(id int) bool
	// Schema, when set beside Match, judges an annotation schema whole:
	// the scan asks it once, on the first candidate of schema s (the
	// document's AnnTables.Schema entry, 0 for none) that reaches
	// Match, and then admits every candidate of a schema it answers
	// AdmitAll and rejects every one of a schema it answers RejectAll
	// without calling Match. Its answers must agree with Match's.
	Schema func(s uint32) Verdict
}

// Verdict is what a Filter's Schema decides for every document of one
// annotation schema.
type Verdict uint8

const (
	JudgeEach Verdict = iota + 1 // Match decides each candidate
	AdmitAll                     // every document is admitted
	RejectAll                    // no document is admitted
)

// TopK returns one page of the BM25 ranking for a free-text query: the
// k hits after skipping offset, plus the total hit count. Ties break by
// ascending doc id so results are deterministic. f is an optional
// admission filter; hits it rejects count toward neither the page nor
// the total. Cancellation is cooperative, checked between query terms
// and, when f sets either field, every keepPollEvery candidates of the
// selection loop: a canceled context returns ctx.Err() with no results.
func (ix *Index) TopK(ctx context.Context, query string, k, offset int, f *Filter) ([]Result, int, error) {
	if k <= 0 {
		return nil, 0, ctx.Err()
	}
	rs, total, err := ix.topK(ctx, query, k, offset, f)
	return ix.materialize(rs), total, err
}

// materialize fills in each result's URL, Title and Source from its
// row. Only the page a caller gets back is decoded: a row is read at a
// random place in its chunk, a few cache misses each.
func (ix *Index) materialize(rs []Result) []Result {
	for i := range rs {
		d := ix.rows.Doc(rs[i].DocID)
		rs[i].URL, rs[i].Title, rs[i].Source = d.URL, d.Title, d.Source
	}
	return rs
}

// topK is TopK, save that it leaves the results to materialize.
func (ix *Index) topK(ctx context.Context, query string, k, offset int, f *Filter) ([]Result, int, error) {
	if offset < 0 {
		offset = 0
	}
	var (
		hid     uint32 // the host column's id for f.Host; 0 = any host
		match   func(int) bool
		verdict func(uint32) Verdict
	)
	if f != nil {
		if f.Host != "" {
			id, ok := ix.hostIDs[f.Host]
			if !ok {
				return nil, 0, ctx.Err()
			}
			hid = id
		}
		if match = f.Match; match != nil {
			verdict = f.Schema
		}
	}
	sc := searchPool.Get().(*searchScratch)
	defer searchPool.Put(sc)
	qterms := sc.tz.StemmedTokensInto(sc.qterms[:0], query)
	sc.qterms = qterms[:0]
	if len(qterms) == 0 {
		return nil, 0, ctx.Err()
	}

	n := len(ix.lens)
	if n == 0 {
		return nil, 0, ctx.Err()
	}
	avgdl := float64(ix.totalLen) / float64(n)
	if avgdl == 0 {
		avgdl = 1
	}
	// The accumulator is indexed by doc id, so it spans the table.
	if cap(sc.scores) < n {
		sc.scores = make([]float64, n)
	} else {
		sc.scores = sc.scores[:n]
	}
	scores := sc.scores
	touched := sc.touched[:0]

	// Length-normalization constants hoisted out of the posting loops:
	// denominator = tf + c0 + c1*dl.
	c0 := bm25K1 * (1 - bm25B)
	c1 := bm25K1 * bm25B / avgdl
	for qi, t := range qterms {
		// Cancellation point: once per query term, so a canceled search
		// stops scoring within one posting-list scan.
		if err := ctx.Err(); err != nil {
			return nil, 0, abandonSearch(sc, scores, touched, 0, err)
		}
		dup := false
		for _, prev := range qterms[:qi] {
			if prev == t {
				dup = true
				break
			}
		}
		if dup {
			continue
		}
		pl := ix.postings[t]
		if pl == nil {
			continue
		}
		w := idf(n, pl.Len()) * (bm25K1 + 1)
		// Every posting names a row of the table: a reader is frozen
		// whole, with every row its postings name. BM25 contributions are
		// strictly positive, so a zero score means "first touch" and
		// doubles as the reset marker.
		docs, lens := pl.docs, ix.lens
		if !pl.wide() {
			tfs := pl.tfs[:len(docs)]
			for i, d := range docs {
				s := scores[d]
				if s == 0 {
					touched = append(touched, d)
				}
				tf := float64(tfs[i])
				scores[d] = s + w*tf/(tf+c0+c1*float64(lens[d]))
			}
			continue
		}
		for i, d := range docs {
			s := scores[d]
			if s == 0 {
				touched = append(touched, d)
			}
			tf := float64(pl.TF(i))
			scores[d] = s + w*tf/(tf+c0+c1*float64(lens[d]))
		}
	}
	sc.touched = touched

	// Bounded top-(offset+k) selection; the heap root is the weakest
	// kept hit. The filter admits documents here — after scoring, before
	// selection — so pagination and the hit total both describe the
	// filtered result set. The unfiltered loop is kept branch-free (the
	// overwhelmingly common serving path): its total is just the
	// touched count.
	kk := k + offset
	if kk < k { // offset overflowed int
		kk = int(^uint(0) >> 1)
	}
	var total int
	h := sc.heap[:0]
	if hid == 0 && match == nil {
		total = len(touched)
		for _, d := range touched {
			s := scores[d]
			scores[d] = 0 // reset while draining: accumulator is clean for reuse
			if len(h) < kk {
				h = append(h, heapEntry{score: s, doc: d})
				siftUp(h)
			} else if beats(s, d, h[0]) {
				h[0] = heapEntry{score: s, doc: d}
				siftDown(h)
			}
		}
	} else {
		hosts := ix.hosts
		// A candidate that passes the host check costs its schema's
		// verdict, asked of f.Schema once per schema the scan meets;
		// only a judge-each schema's candidates reach Match.
		schema, verdicts := ix.ann.schema, []Verdict(nil)
		if verdict != nil {
			n := len(ix.ann.schemas)
			verdicts = slices.Grow(sc.verdicts[:0], n)[:n]
			clear(verdicts)
			sc.verdicts = verdicts
		}
		for i, d := range touched {
			// Match is caller code of unknown cost per candidate: the
			// one place a query can run long, so the one selection loop
			// that polls for cancellation.
			if i&(keepPollEvery-1) == keepPollEvery-1 {
				if err := ctx.Err(); err != nil {
					sc.heap = h[:0]
					return nil, 0, abandonSearch(sc, scores, touched, i, err)
				}
			}
			s := scores[d]
			scores[d] = 0
			// The host check reads the column alone; Match runs only for
			// a candidate on the host.
			if hid != 0 && hosts[d] != hid {
				continue
			}
			if match != nil {
				v := JudgeEach
				if verdict != nil {
					var sid uint32 // schema id; 0 for none
					if int(d) < len(schema) {
						sid = schema[d]
					}
					if v = verdicts[sid]; v == 0 {
						v = verdict(sid)
						verdicts[sid] = v
					}
				}
				if v == RejectAll || v != AdmitAll && !match(int(d)) {
					continue
				}
			}
			total++
			if len(h) < kk {
				h = append(h, heapEntry{score: s, doc: d})
				siftUp(h)
			} else if beats(s, d, h[0]) {
				h[0] = heapEntry{score: s, doc: d}
				siftDown(h)
			}
		}
	}
	sc.heap = h[:0]

	out := make([]Result, len(h))
	for m := len(h); m > 0; m-- {
		e := h[0]
		h[0] = h[m-1]
		h = h[:m-1]
		siftDown(h)
		out[m-1] = Result{DocID: int(e.doc), Score: e.score}
	}
	return pageOf(out, k, offset), total, nil
}

// beats reports whether a hit with the given score and doc id ranks
// strictly ahead of e (higher score first, then ascending doc id).
func beats(score float64, doc int32, e heapEntry) bool {
	if score != e.score {
		return score > e.score
	}
	return doc < e.doc
}

// weaker is the heap order: the weakest hit sits at the root.
func weaker(a, b heapEntry) bool {
	if a.score != b.score {
		return a.score < b.score
	}
	return a.doc > b.doc
}

// siftUp restores the heap property after appending to h.
func siftUp(h []heapEntry) {
	i := len(h) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !weaker(h[i], h[parent]) {
			break
		}
		h[i], h[parent] = h[parent], h[i]
		i = parent
	}
}

// siftDown restores the heap property after replacing h[0].
func siftDown(h []heapEntry) {
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		min := i
		if l < len(h) && weaker(h[l], h[min]) {
			min = l
		}
		if r < len(h) && weaker(h[r], h[min]) {
			min = r
		}
		if min == i {
			return
		}
		h[i], h[min] = h[min], h[i]
		i = min
	}
}

// idf is the BM25 idf with the +1 smoothing that keeps it positive.
func idf(n, df int) float64 {
	return math.Log(1 + (float64(n)-float64(df)+0.5)/(float64(df)+0.5))
}
