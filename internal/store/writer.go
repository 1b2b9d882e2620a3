package store

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"

	"deepweb/internal/index"
)

// Writer is the one way a snapshot directory's index segments get
// written. It owns the directory protocol — create the directory, sweep
// a crashed writer's droppings, stream the docs segment first, then
// write the columns segment and one postings segment per shard, each
// stamped with the snapshot id, and meta last — and the two decisions
// that make the bytes canonical: the one term→segment placement,
// shardOf, and the annotation tables, which it builds as documents
// stream in, through the index's own intern core (index.AnnBuilder),
// from every document in doc-id order. The two producers of snapshots
// differ only in where documents and postings come from:
//
//   - a live index (engine.Save) streams its document table through
//     AddDoc and hands Commit every resident posting list, which Commit
//     places by shardOf;
//
//   - a tokenized stream (engine.BulkBuild) feeds AddPrepared, which
//     also accumulates the document's postings in RAM, placed by
//     shardOf. Every spillDocs documents the accumulator is flushed as
//     one sorted run file per non-empty shard, and Commit k-way merges
//     each shard's runs into its final segment. Peak memory is the
//     spill window plus one shard's merged postings plus the annotation
//     tables, which grow with the corpus's distinct annotation values
//     and which a server of the snapshot holds anyway.
//
// Spill runs are framed like postings segments (same header, same
// varint/delta body, KindSpill so the kind check refuses them as live
// data) and named *.tmp, so the CleanTmp sweep at the next writer's
// start collects what a crashed build left behind. Terms within a run
// are sorted; doc ids within a term ascend. Because runs are flushed in
// doc-id order, concatenating a term's postings across a shard's runs
// in flush order yields the ascending posting list of the final
// segment — the merged output is independent of where the flush
// boundaries fell, and since every term is placed by shardOf whichever
// path it came in by, Save and BulkBuild of the same corpus write
// byte-identical directories.
//
// A Writer is not safe for concurrent use. Callers defer Abort: after
// a failed Add or Commit it sweeps the temp files and runs (segments of
// an earlier completed snapshot may remain, and the snapshot-id binding
// keeps a loader from mixing them with anything newer); after a
// successful Commit it does nothing.
type Writer struct {
	dir       string
	shards    int
	spillDocs int
	docs      *docsWriter

	// The annotation tables are interned off the caller's goroutine, a
	// batch at a time and one batch after another, so doc-id order
	// holds and the interning overlaps whatever feeds the writer.
	anns     *index.AnnBuilder
	pending  []annotated   // documents' annotations not yet handed off
	interned chan struct{} // closed once the batch handed off last is interned

	acc    []map[string][]index.Posting // per shard: term → ascending postings
	window int                          // documents accumulated since the last flush
	runs   [][]string                   // per shard: run files in flush order
	done   bool                         // committed: Abort is a no-op
}

// annotated is one document's annotations, waiting to be interned.
type annotated struct {
	id   int
	anns map[string]string
}

// annBatch is how many annotated documents are handed off at a time.
const annBatch = 1024

// NewWriter prepares dir for a snapshot of exactly docs documents over
// shards posting shards. spillDocs is the accumulator window AddPrepared
// flushes at; a writer fed only through AddDoc never consults it.
func NewWriter(dir string, shards, docs, spillDocs int) (*Writer, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	// Crash hygiene: a writer that died mid-snapshot leaves *.tmp files
	// behind (segments and runs are written under temp names). Sweep
	// them before writing so they cannot accumulate.
	if err := CleanTmp(dir); err != nil {
		return nil, err
	}
	dw, err := newDocsWriter(DocsPath(dir), shards, docs)
	if err != nil {
		return nil, err
	}
	w := &Writer{
		dir:       dir,
		shards:    shards,
		spillDocs: spillDocs,
		docs:      dw,
		anns:      index.NewAnnBuilder(),
		acc:       make([]map[string][]index.Posting, shards),
		runs:      make([][]string, shards),
	}
	for si := range w.acc {
		w.acc[si] = map[string][]index.Posting{}
	}
	return w, nil
}

// AddDoc appends the next document (id = arrival order): its row and
// BM25 length to the docs segment, and its annotations (nil for none)
// to the annotation tables. The writer reads anns until Commit or Abort
// returns: the caller must not change it before then.
func (w *Writer) AddDoc(d index.Doc, dl int, anns map[string]string) error {
	id := w.docs.n
	if err := w.docs.Add(d, dl); err != nil {
		return err
	}
	if len(anns) > 0 {
		if w.pending = append(w.pending, annotated{id, anns}); len(w.pending) == annBatch {
			w.handOff()
		}
	}
	return nil
}

// handOff starts interning the pending annotations on a goroutine of
// their own, once the batch handed off before them is interned.
func (w *Writer) handOff() {
	w.waitInterned()
	batch, done := w.pending, make(chan struct{})
	w.pending, w.interned = make([]annotated, 0, annBatch), done
	go func() {
		defer close(done)
		for _, a := range batch {
			w.anns.Annotate(a.id, a.anns)
		}
	}()
}

// waitInterned returns once every handed-off batch is interned.
func (w *Writer) waitInterned() {
	if w.interned != nil {
		<-w.interned
		w.interned = nil
	}
}

// AddPrepared appends the next document of a tokenized stream: the
// docs-segment row plus its postings, accumulated until the spill
// window fills.
func (w *Writer) AddPrepared(p *index.Prepared, anns map[string]string) error {
	id := w.docs.n
	if err := w.AddDoc(p.Doc(), p.DocLen(), anns); err != nil {
		return err
	}
	tfs := p.TermFreqs()
	for j, t := range p.Terms() {
		m := w.acc[shardOf(t, w.shards)]
		m[t] = append(m[t], index.Posting{Doc: int32(id), TF: tfs[j]})
	}
	if w.window++; w.window >= w.spillDocs {
		return w.spill()
	}
	return nil
}

// spill flushes every non-empty shard of the accumulator as one sorted
// run. The run header's doc count — the bound run readers check doc
// ids against — is the number of documents added so far.
func (w *Writer) spill() error {
	for si, m := range w.acc {
		if len(m) == 0 {
			continue
		}
		terms := make([]index.TermPostings, 0, len(m))
		for t, ps := range m {
			terms = append(terms, index.TermPostings{Term: t, Postings: ps})
		}
		sort.Slice(terms, func(i, j int) bool { return terms[i].Term < terms[j].Term })
		var e enc
		encodePostingsBody(&e, terms)
		path := filepath.Join(w.dir, fmt.Sprintf("spill-s%04d-r%04d.tmp", si, len(w.runs[si])))
		if err := writeFramed(path, Header{
			Version:  Version,
			Kind:     KindSpill,
			Shards:   uint32(w.shards),
			ShardID:  uint32(si),
			DocCount: uint64(w.docs.n),
		}, e.b); err != nil {
			return err
		}
		w.runs[si] = append(w.runs[si], path)
		w.acc[si] = map[string][]index.Posting{}
	}
	w.window = 0
	return nil
}

// Runs returns the number of spill-run files written so far.
func (w *Writer) Runs() int {
	n := 0
	for _, r := range w.runs {
		n += len(r)
	}
	return n
}

// Commit finishes the snapshot: the docs segment is closed and renamed
// into place, stamped with the snapshot id, the CRC of its body and the
// columns body; then the columns segment and each shard's postings
// segment — the merge of its spilled runs and of the resident posting
// lists (sorted by term) that shardOf places there — are written
// stamped with that id, the postings on up to workers goroutines; then
// the meta segment carrying sites. It returns the snapshot id.
func (w *Writer) Commit(workers int, sites []SiteMeta, resident []index.TermPostings) (snapID uint32, err error) {
	if w.window > 0 {
		if err := w.spill(); err != nil {
			return 0, err
		}
	}
	placed := make([][]index.TermPostings, w.shards)
	for _, tp := range resident {
		si := shardOf(tp.Term, w.shards)
		placed[si] = append(placed[si], tp)
	}
	w.handOff()
	w.waitInterned()
	columns := encodeColumns(w.anns.Tables())
	snapID, err = w.docs.Close(columns)
	if err != nil {
		return 0, err
	}
	if err := writeColumns(ColumnsPath(w.dir), w.docs.n, snapID, columns); err != nil {
		return 0, fmt.Errorf("columns: %w", err)
	}
	err = ForEachShard(workers, w.shards, func(si int) error {
		lists := make([][]index.TermPostings, 0, len(w.runs[si])+1)
		for _, path := range w.runs[si] {
			terms, h, err := readPostings(path, KindSpill)
			if err != nil {
				return err
			}
			if h.Shards != uint32(w.shards) || h.ShardID != uint32(si) {
				return fmt.Errorf("%s: run header (shards=%d id=%d) disagrees with build (shards=%d id=%d): %w",
					path, h.Shards, h.ShardID, w.shards, si, ErrCorrupt)
			}
			lists = append(lists, terms)
		}
		if placed[si] != nil {
			lists = append(lists, placed[si])
		}
		return WritePostings(PostingsPath(w.dir, si), w.shards, si, w.docs.n, snapID, mergeRuns(lists))
	})
	if err != nil {
		return 0, fmt.Errorf("postings: %w", err)
	}
	if err := CleanTmp(w.dir); err != nil {
		return 0, err
	}
	if err := WriteMeta(MetaPath(w.dir), &MetaSegment{Sites: sites}); err != nil {
		return 0, fmt.Errorf("meta: %w", err)
	}
	w.done = true
	return snapID, nil
}

// Abort discards an uncommitted snapshot's temp files and spill runs.
func (w *Writer) Abort() {
	if w.done {
		return
	}
	w.waitInterned()
	w.docs.Abort()
	_ = CleanTmp(w.dir) // best effort: the next writer's opening sweep retries
}

// mergeRuns k-way merges sorted term lists into one sorted list,
// concatenating a term's postings across lists in list (= doc-id)
// order. Linear scan over list heads: run counts are dozens, not
// thousands, and the real cost is the postings append.
func mergeRuns(runs [][]index.TermPostings) []index.TermPostings {
	if len(runs) == 1 {
		return runs[0]
	}
	heads := make([]int, len(runs))
	total := 0
	for _, r := range runs {
		total += len(r)
	}
	out := make([]index.TermPostings, 0, total)
	for {
		best := ""
		found := false
		for ri, r := range runs {
			if heads[ri] < len(r) {
				if t := r[heads[ri]].Term; !found || t < best {
					best, found = t, true
				}
			}
		}
		if !found {
			return out
		}
		var ps []index.Posting
		for ri, r := range runs {
			if heads[ri] < len(r) && r[heads[ri]].Term == best {
				ps = append(ps, r[heads[ri]].Postings...)
				heads[ri]++
			}
		}
		out = append(out, index.TermPostings{Term: best, Postings: ps})
	}
}

// shardOf is the one term→segment decision: FNV-1a of the term, modulo
// the segment count. It is a pure function of its arguments — no
// per-index or per-process seed — so a term lands in the same segment
// whichever path wrote it and in any process, which is what lets two
// builds of one corpus be byte-identical segment file by segment file.
func shardOf(term string, shards int) int {
	if shards <= 1 {
		return 0
	}
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for i := 0; i < len(term); i++ {
		h ^= uint64(term[i])
		h *= prime64
	}
	return int(h % uint64(shards))
}

// ForEachShard runs fn over every shard id, handed out in ascending
// order, on up to workers goroutines and returns the first error (by
// shard order). Writer and the loader parallelize through it.
func ForEachShard(workers, shards int, fn func(si int) error) error {
	if workers < 1 {
		workers = 1
	}
	if workers > shards {
		workers = shards
	}
	errs := make([]error, shards)
	jobs := make(chan int)
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for si := range jobs {
				errs[si] = fn(si)
			}
		}()
	}
	for si := 0; si < shards; si++ {
		jobs <- si
	}
	close(jobs)
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}
