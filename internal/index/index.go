// Package index is the IR substrate: an inverted index with BM25
// ranking. Surfaced deep-web pages are inserted "like any other HTML
// page" (paper §3.2) — the index neither knows nor cares that a document
// came from a form submission, which is precisely the surfacing
// approach's architectural bet. Attribution (which form produced which
// document) is carried as opaque metadata so experiments can credit
// impact back to forms (E1).
//
// Layout: the document table (ids, lengths, URL dedup, the host
// column), the one term → posting-list map and the annotations sit
// behind one lock, the table lock. A commit writes a whole batch —
// rows, postings, annotations — in one write-locked section, and a
// query reads under the read lock, so readers see a batch entirely or
// not at all. Shards exist only on disk: the index records how many
// postings segments a snapshot of it is written as, and the snapshot
// writer (internal/store) decides which segment each term lands in.
// The expensive half of an insert — tokenization and term counting —
// is exposed separately as Prepare, so a concurrent ingest pipeline
// can analyze documents in parallel outside the lock and commit them
// at an ordered point, keeping doc-id assignment deterministic.
//
// The URL map that dedups commits grows with every commit into an
// index from New. An index whose table came from ImportDocs (a loaded
// snapshot) has none until the first AddPreparedBatch or Has, which
// builds it from the table: a served index never reads it.
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
	"sync"
	"sync/atomic"

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

// Index is an in-memory inverted index with BM25 scoring. It is safe
// for concurrent use; a committed batch becomes visible to queries all
// at once.
type Index struct {
	// segments is how many postings segments Save writes, fixed at
	// construction; it does not change how postings are held in memory.
	segments int

	// mu, the table lock, guards everything below: the document table,
	// postings and ann. A query holds it read-side for its whole scan,
	// so the filter reads each candidate's annotations in place; writers
	// hold it write-side.
	mu       sync.RWMutex
	docs     []Doc
	lens     []int
	byURL    map[string]int // URL -> id; nil after ImportDocs until the first write
	totalLen int

	postings map[string][]Posting // term -> postings in ascending doc id

	// hosts is parallel to docs: each document's host (hostOf its URL)
	// as an id in the host dictionary, 0 for no host. A host
	// restriction compares ids, so the scan never reads a URL.
	hosts     []uint32
	hostIDs   map[string]uint32 // host -> id; "" is never interned
	hostNames []string          // id -> host; hostNames[0] is ""

	ann annStore

	// version counts write-locked sections; each increments it while
	// holding mu (see Version).
	version atomic.Uint64
}

// BM25 constants; the standard values.
const (
	bm25K1 = 1.2
	bm25B  = 0.75
)

// DefaultShards is the postings-segment count of an index from New.
const DefaultShards = 16

// New returns an empty index that saves as DefaultShards postings
// segments.
func New() *Index { return NewSharded(DefaultShards) }

// NewSharded returns an empty index that saves as n postings segments
// (n < 1 is treated as 1). The count is a snapshot layout; search
// results do not depend on it.
func NewSharded(n int) *Index {
	return &Index{
		segments:  max(n, 1),
		byURL:     map[string]int{},
		postings:  map[string][]Posting{},
		hostIDs:   map[string]uint32{},
		hostNames: []string{""},
		ann:       newAnnStore(),
	}
}

// Prepared is a tokenized document ready to commit: the expensive part
// of an insert (tokenize, stopword, stem, count) done up front, with no
// index lock held. Workers prepare documents concurrently; doc ids are
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

// Add indexes a document and returns its id. A URL already present is
// not re-indexed (the crawler and the surfacer may both submit the same
// page); the existing id is returned with added=false.
func (ix *Index) Add(d Doc) (id int, added bool) {
	return ix.AddPrepared(Prepare(d))
}

// AddPrepared commits one prepared document, unannotated, through the
// batch commit path.
func (ix *Index) AddPrepared(p *Prepared) (id int, added bool) {
	ids, ok := ix.AddPreparedBatch([]*Prepared{p}, nil)
	return ids[0], ok[0]
}

// Version changes whenever the index may answer a query differently:
// every write-locked section increments it while holding the lock. A
// caller that reads Version before a query therefore never pairs a
// version with an older state than the one it names, so a result
// cached under it goes stale only once the version has moved on.
func (ix *Index) Version() uint64 { return ix.version.Load() }

// Len returns the number of indexed documents.
func (ix *Index) Len() int {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	return len(ix.docs)
}

// Has reports whether a URL is already indexed. On an index whose
// documents came from ImportDocs, the first call takes the write lock
// and builds the URL lookup.
func (ix *Index) Has(url string) bool {
	ix.mu.RLock()
	if ix.byURL != nil {
		_, ok := ix.byURL[url]
		ix.mu.RUnlock()
		return ok
	}
	ix.mu.RUnlock()
	ix.mu.Lock()
	defer ix.mu.Unlock()
	_, ok := ix.urlsLocked()[url]
	return ok
}

// urlsLocked returns the URL lookup, building it from the document
// table if ImportDocs left it nil. The caller holds the write lock.
func (ix *Index) urlsLocked() map[string]int {
	if ix.byURL == nil {
		ix.byURL = make(map[string]int, len(ix.docs))
		for id, d := range ix.docs {
			ix.byURL[d.URL] = id
		}
	}
	return ix.byURL
}

// Doc returns the indexed document with the given id.
func (ix *Index) Doc(id int) Doc {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	return ix.docs[id]
}

// plist returns the posting list for an already-normalized term. The
// caller holds the table lock for as long as it reads the list.
func (ix *Index) plist(term string) []Posting {
	return ix.postings[term]
}

// DF returns the document frequency of a (raw) term after the
// standard pipeline is applied to it.
func (ix *Index) DF(term string) int {
	sc := searchPool.Get().(*searchScratch)
	qterms := sc.tz.StemmedTokensInto(sc.qterms[:0], term)
	df := 0
	if len(qterms) > 0 {
		ix.mu.RLock()
		df = len(ix.plist(qterms[0]))
		ix.mu.RUnlock()
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
// or one with neither field set, admits every document.
type Filter struct {
	// Host admits only documents whose host — url.Parse(URL).Host, ""
	// when the URL does not parse — equals it; "" admits every host.
	// It is resolved once per scan to an id in the host column, so a
	// candidate costs one integer compare and a host the index has
	// never seen answers an empty page without scoring anything.
	Host string
	// Match, when set, admits the candidates it returns true for,
	// handed each one's doc id and document in place, under the scan's
	// read lock, after the host check. Like ForEach's fn it must
	// not call back into the index (bar AnnotationTables, which takes
	// no lock and relies on this one): a recursive read lock deadlocks
	// once a writer is queued.
	Match func(id int, d *Doc) bool
}

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
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	return ix.topKLocked(ctx, query, k, offset, f)
}

// topKLocked is TopK for a caller holding the table read lock.
func (ix *Index) topKLocked(ctx context.Context, query string, k, offset int, f *Filter) ([]Result, int, error) {
	if offset < 0 {
		offset = 0
	}
	var (
		hid   uint32 // the host column's id for f.Host; 0 = any host
		match func(int, *Doc) bool
	)
	if f != nil {
		if f.Host != "" {
			id, ok := ix.hostIDs[f.Host]
			if !ok {
				return nil, 0, ctx.Err()
			}
			hid = id
		}
		match = f.Match
	}
	sc := searchPool.Get().(*searchScratch)
	defer searchPool.Put(sc)
	qterms := sc.tz.StemmedTokensInto(sc.qterms[:0], query)
	sc.qterms = qterms[:0]
	if len(qterms) == 0 {
		return nil, 0, ctx.Err()
	}

	n := len(ix.docs)
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
		plist := ix.plist(t)
		if len(plist) == 0 {
			continue
		}
		w := idf(n, len(plist)) * (bm25K1 + 1)
		for _, p := range plist {
			// Every posting names a row of this query's table: a commit
			// writes rows and postings in one section under the table
			// lock, held read-side for this whole query.
			s := scores[p.Doc]
			if s == 0 {
				// BM25 contributions are strictly positive, so zero
				// means "first touch" and doubles as the reset marker.
				touched = append(touched, p.Doc)
			}
			tf := float64(p.TF)
			scores[p.Doc] = s + w*tf/(tf+c0+c1*float64(ix.lens[p.Doc]))
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
			if match != nil && !match(int(d), &ix.docs[d]) {
				continue
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
		doc := ix.docs[e.doc]
		out[m-1] = Result{DocID: int(e.doc), URL: doc.URL, Title: doc.Title, Source: doc.Source, Score: e.score}
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
