package store

import (
	"errors"
	"fmt"
	"os"
	"slices"
	"strings"

	"deepweb/internal/index"
	"deepweb/internal/pipe"
)

// Writer is the one way a snapshot directory's index segments get
// written. It owns the directory protocol — create the directory, sweep
// a crashed writer's droppings, stream the docs segment first, then
// write the columns segment and one postings segment per shard, each
// stamped with the snapshot id, and meta last — and the term→segment
// placement, shardOf. A row arrives in the docs segment's encoding
// (index.AppendRow), and the annotation tables, handed to Commit, are
// those an index.AnnBuilder fed every document in doc-id order builds,
// which is how a live index's append-only store is written too. The
// two producers of snapshots differ only in where rows and postings
// come from:
//
//   - a live index (engine.Save) hands AddRow every row as it holds it,
//     in id order, and Commit its resident posting lists;
//
//   - a tokenized stream (engine.BulkBuild) feeds AddPrepared, which
//     encodes the row, has Commit check its URL (an index's URLs are
//     distinct already) and appends the postings to one in-memory term
//     map, whose lists Commit sorts by term and writes as it writes a
//     live index's. Rows stream to disk; the postings stay resident
//     until Commit, which is what a server of the snapshot holds
//     anyway.
//
// Commit places every term by shardOf whichever path it came in by, so
// Save and BulkBuild of the same corpus write byte-identical
// directories.
//
// A Writer is not safe for concurrent use. Callers defer Abort: after
// a failed Add or Commit it sweeps the temp files (segments of an
// earlier completed snapshot may remain, and the snapshot-id binding
// keeps a loader from mixing them with anything newer); after a
// successful Commit it does nothing.
type Writer struct {
	dir      string
	shards   int
	docs     *docsWriter
	row      []byte // the row AddRow or AddPrepared is writing
	prepared bool   // fed through AddPrepared: it holds its own postings

	// AddPrepared's postings: each term's ascending list, in first-seen
	// order, and where each term's list is, so a posting costs one map
	// lookup.
	at    map[string]int
	terms []index.TermPostings
	done  bool // committed: Abort is a no-op
}

// NewWriter prepares dir for a snapshot of exactly docs documents over
// shards posting shards.
func NewWriter(dir string, shards, docs int) (*Writer, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	// Crash hygiene: a writer that died mid-snapshot leaves *.tmp files
	// behind (segments are written under temp names). Sweep them before
	// writing so they cannot accumulate.
	if err := CleanTmp(dir); err != nil {
		return nil, err
	}
	dw, err := newDocsWriter(DocsPath(dir), shards, docs)
	if err != nil {
		return nil, err
	}
	return &Writer{
		dir:    dir,
		shards: shards,
		docs:   dw,
		at:     map[string]int{},
	}, nil
}

// AddRow appends the next document (id = arrival order) as its row,
// as a live index holds it (index.Index.ForEachRow). Its postings and
// annotations are Commit's.
func (w *Writer) AddRow(row string) error {
	w.row = append(w.row[:0], row...)
	return w.docs.Add(w.row)
}

// AddPrepared appends the next document of a tokenized stream: its
// docs-segment row, and its postings to the writer's term map.
func (w *Writer) AddPrepared(p *index.Prepared) error {
	id := w.docs.n
	w.prepared = true
	w.row = index.AppendRow(w.row[:0], p.Doc(), p.DocLen())
	if err := w.docs.AddChecked(w.row); err != nil {
		return err
	}
	tfs := p.TermFreqs()
	for j, t := range p.Terms() {
		i, ok := w.at[t]
		if !ok {
			i = len(w.terms)
			w.at[t] = i
			w.terms = append(w.terms, index.TermPostings{Term: t})
		}
		w.terms[i].Postings.Append(int32(id), tfs[j])
	}
	return nil
}

// Commit finishes the snapshot: the docs segment is closed — failing on
// a URL AddPrepared brought twice — and renamed into place, stamped
// with the snapshot id, the CRC of its body and the columns body; then
// the columns segment, encoded from cols and schemas (as
// index.Index's ExportAnnotations or an index.AnnBuilder hands them
// out), and each shard's postings segment — the posting lists that
// shardOf places there, sorted by term — are written stamped with that
// id, the shards on up to workers goroutines; then the meta segment
// carrying sites. The postings are resident (as index.Index's
// ExportTerms hands them out) or, for a writer fed through
// AddPrepared, which must be handed none, what it accumulated. It
// returns the snapshot id.
func (w *Writer) Commit(workers int, sites []SiteMeta, resident []index.TermPostings, cols []index.AnnColumn, schemas []index.AnnSchema) (snapID uint32, err error) {
	if w.prepared {
		if resident != nil {
			return 0, errors.New("store: commit: posting lists handed to a writer that holds its own")
		}
		resident = w.terms
		w.at, w.terms = nil, nil
	}
	// Each shard's list is sized once, from a first pass that counts
	// its terms; a shard with none stays nil.
	counts := make([]int, w.shards)
	for _, tp := range resident {
		counts[shardOf(tp.Term, w.shards)]++
	}
	placed := make([][]index.TermPostings, w.shards)
	for si, n := range counts {
		if n > 0 {
			placed[si] = make([]index.TermPostings, 0, n)
		}
	}
	for _, tp := range resident {
		si := shardOf(tp.Term, w.shards)
		placed[si] = append(placed[si], tp)
	}
	columns := encodeColumns(cols, schemas)
	snapID, err = w.docs.Close(columns)
	if err != nil {
		return 0, err
	}
	if err := writeColumns(ColumnsPath(w.dir), w.docs.n, snapID, columns); err != nil {
		return 0, fmt.Errorf("columns: %w", err)
	}
	err = pipe.Each(workers, w.shards, func(si int) error {
		slices.SortFunc(placed[si], func(a, b index.TermPostings) int { return strings.Compare(a.Term, b.Term) })
		return WritePostings(PostingsPath(w.dir, si), w.shards, si, w.docs.n, snapID, placed[si])
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

// Abort discards an uncommitted snapshot's temp files.
func (w *Writer) Abort() {
	if w.done {
		return
	}
	w.docs.Abort()
	_ = CleanTmp(w.dir) // best effort: the next writer's opening sweep retries
}

// Load is the one reader of a snapshot directory's index segments: it
// decodes what Writer wrote into one index.Builder, which answers plain
// and annotated queries exactly as the saved index did — ids, score
// bits and tie order included — and returns it with the docs segment's
// header, whose SnapID is the snapshot's generation.
//
// The docs header is read first, for the shard count. Then every
// segment is decoded at once, on up to 2+workers goroutines
// (pipe.Each): the rows (readRows) into ImportRows, which keeps the
// docs body as the document table; the columns into
// InstallAnnotations; the postings into lists that one ImportTerms
// installs once the jobs are joined. Every other header must agree
// with the docs header (sameSnapshot), so segments of different
// generations fail even when each decodes cleanly. A damaged snapshot
// fails with the first failing job's error, in the order rows,
// annotations, then postings in segment order; a term in two segments
// fails after them. The meta and tables segments are left unread.
func Load(dir string, workers int) (*index.Builder, Header, error) {
	docsPath := DocsPath(dir)
	hdr, err := peekHeader(docsPath, KindDocs)
	if err != nil {
		return nil, hdr, fmt.Errorf("store: load docs: %w", err)
	}
	b := index.NewSharded(int(hdr.Shards))

	// Job 0 is the rows, job 1 the annotation tables, job 2+si
	// postings segment si, installed together once every job is done.
	segs := make([][]index.TermPostings, hdr.Shards)
	err = pipe.Each(2+workers, 2+int(hdr.Shards), func(job int) error {
		switch job {
		case 0:
			rows, h, err := readRows(docsPath)
			if err != nil {
				return err
			}
			if h != hdr {
				return fmt.Errorf("%s: header changed while the snapshot loaded: %w", docsPath, ErrCorrupt)
			}
			if err := b.ImportRows(rows); err != nil {
				return fmt.Errorf("%s: %w: %w", docsPath, err, ErrCorrupt)
			}
			return nil
		case 1:
			return readColumns(ColumnsPath(dir), hdr, b)
		}
		si := job - 2
		path := PostingsPath(dir, si)
		terms, ph, err := ReadPostings(path)
		if err != nil {
			return err
		}
		want := hdr
		want.Kind, want.ShardID = KindPostings, uint32(si)
		if err := sameSnapshot(path, ph, want); err != nil {
			return err
		}
		segs[si] = terms
		return nil
	})
	if err == nil {
		err = b.ImportTerms(segs...)
	}
	if err != nil {
		return nil, hdr, fmt.Errorf("store: load: %w", err)
	}
	return b, hdr, nil
}

// sameSnapshot returns nil when h, the header of the segment at path,
// is want, the one the docs segment implies for it, and otherwise an
// ErrCorrupt naming both.
func sameSnapshot(path string, h, want Header) error {
	if h == want {
		return nil
	}
	return fmt.Errorf("%s: header (shards=%d id=%d docs=%d snap=%08x) disagrees with docs segment (shards=%d id=%d docs=%d snap=%08x) — segments from different snapshot generations?: %w",
		path, h.Shards, h.ShardID, h.DocCount, h.SnapID, want.Shards, want.ShardID, want.DocCount, want.SnapID, ErrCorrupt)
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
