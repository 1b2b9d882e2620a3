package store

import (
	"bufio"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"sort"

	"deepweb/internal/index"
)

// docsWriter is the docs-segment encoder: it streams the segment to
// disk one document at a time, so neither a bulk build nor a Save of a
// live index ever holds the encoded document table in memory. The body
// CRC — and therefore the snapshot id every postings segment is stamped
// with — depends only on the documents, so the same corpus yields the
// same bytes whether it was saved from RAM or streamed from a source
// (the format is pinned by a digest test).
//
// Streaming a format whose header precedes a body of unknown length
// works by reserving the 44-byte header up front, accumulating the
// body CRC incrementally, and patching the real header in place at
// Close before the atomic rename. Annotations are the one wrinkle: the
// docs body interleaves them *after* all documents, so per-doc
// annotation entries are buffered in a sidecar file
// (docs.seg.ann.tmp) and spliced into the body at Close — disk, not
// RAM, scales with annotation volume. Both temp names end in .tmp, so
// a crashed writer's droppings fall to the existing CleanTmp sweep.
//
// Tombstones ride along as a flag per Add; their delta-coded id list
// (a byte or two per deleted document) is buffered in RAM and appended
// after the annotations.
//
// The writer expects exactly docCount Adds in doc-id order (id =
// arrival order, matching the index's sequential assignment). Not safe
// for concurrent use.
type docsWriter struct {
	path   string
	tmp    string
	annTmp string
	f      *os.File
	bw     *bufio.Writer
	annF   *os.File
	annW   *bufio.Writer

	shards   int
	expected int
	n        int // docs added so far = next doc id
	annDocs  int
	dead     enc // delta-coded tombstone ids, ascending
	nDead    int
	lastDead int
	crc      uint32
	bodyLen  uint64
	scratch  enc
	err      error
	done     bool
}

// newDocsWriter opens the temp files and writes the body prologue.
// shards records the snapshot's postings-segment count so a loader
// knows what to expect from the directory. docCount must be the exact
// number of Add calls to come; Close fails on a mismatch rather than
// emit a lying header.
func newDocsWriter(path string, shards, docCount int) (*docsWriter, error) {
	if shards < 1 || shards > MaxShards {
		return nil, fmt.Errorf("store: docs writer: shard count %d outside [1, %d]", shards, MaxShards)
	}
	if docCount < 0 {
		return nil, fmt.Errorf("store: docs writer: negative doc count %d", docCount)
	}
	w := &docsWriter{
		path:     path,
		tmp:      path + ".tmp",
		annTmp:   path + ".ann.tmp",
		shards:   shards,
		expected: docCount,
	}
	var err error
	if w.f, err = os.Create(w.tmp); err != nil {
		return nil, err
	}
	if w.annF, err = os.Create(w.annTmp); err != nil {
		w.f.Close()
		os.Remove(w.tmp)
		return nil, err
	}
	w.bw = bufio.NewWriterSize(w.f, 1<<16)
	w.annW = bufio.NewWriterSize(w.annF, 1<<15)
	// Header placeholder — patched with real lengths and CRCs at Close.
	if _, err := w.bw.Write(make([]byte, headerSize)); err != nil {
		w.fail(err)
		return nil, w.abort()
	}
	w.scratch.b = w.scratch.b[:0]
	w.scratch.uvarint(uint64(docCount))
	w.emit(w.scratch.b)
	if w.err != nil {
		return nil, w.abort()
	}
	return w, nil
}

func (w *docsWriter) fail(err error) {
	if w.err == nil {
		w.err = err
	}
}

// emit writes body bytes, tracking length and CRC incrementally.
func (w *docsWriter) emit(b []byte) {
	if w.err != nil {
		return
	}
	if _, err := w.bw.Write(b); err != nil {
		w.fail(err)
		return
	}
	w.crc = crc32.Update(w.crc, castagnoli, b)
	w.bodyLen += uint64(len(b))
}

// Add appends one document. dl is its BM25 length (what ExportDocs
// reports as Lens); anns are its surfacing-time annotations, nil or
// empty for none, emitted in sorted attribute order; dead marks a
// tombstoned row. The document's id is its arrival order.
func (w *docsWriter) Add(d index.Doc, dl int, anns map[string]string, dead bool) error {
	if w.done {
		return errors.New("store: docs writer: add after close")
	}
	if w.err != nil {
		return w.err
	}
	if w.n >= w.expected {
		w.fail(fmt.Errorf("store: docs writer: more docs than the declared %d", w.expected))
		return w.err
	}
	e := &w.scratch
	e.b = e.b[:0]
	e.str(d.URL)
	e.str(d.Title)
	e.str(d.Text)
	e.str(d.Source)
	e.uvarint(uint64(dl))
	w.emit(e.b)
	if len(anns) > 0 && w.err == nil {
		attrs := make([]string, 0, len(anns))
		for a := range anns {
			attrs = append(attrs, a)
		}
		sort.Strings(attrs)
		e.b = e.b[:0]
		e.uvarint(uint64(w.n))
		e.uvarint(uint64(len(attrs)))
		for _, a := range attrs {
			e.str(a)
			e.str(anns[a])
		}
		if _, err := w.annW.Write(e.b); err != nil {
			w.fail(err)
		} else {
			w.annDocs++
		}
	}
	if dead {
		w.dead.uvarint(uint64(w.n - w.lastDead))
		w.lastDead = w.n
		w.nDead++
	}
	w.n++
	return w.err
}

// Close splices the annotation sidecar and the tombstone list into the
// body, patches the real header, and atomically renames the segment
// into place. The returned snapshot id (the body CRC) must be stamped
// into the postings segments written alongside.
func (w *docsWriter) Close() (snapID uint32, err error) {
	if w.done {
		return 0, errors.New("store: docs writer: already closed")
	}
	if w.err == nil && w.n != w.expected {
		w.fail(fmt.Errorf("store: docs writer: %d docs added, %d declared", w.n, w.expected))
	}
	// Annotation section: count, then the sidecar's entries (already
	// in ascending doc-id order because Add runs in id order).
	if w.err == nil {
		w.scratch.b = w.scratch.b[:0]
		w.scratch.uvarint(uint64(w.annDocs))
		w.emit(w.scratch.b)
	}
	if w.err == nil {
		if err := w.annW.Flush(); err != nil {
			w.fail(err)
		}
	}
	if w.err == nil {
		if _, err := w.annF.Seek(0, io.SeekStart); err != nil {
			w.fail(err)
		}
	}
	if w.err == nil {
		buf := make([]byte, 1<<16)
		for {
			nr, rerr := w.annF.Read(buf)
			if nr > 0 {
				w.emit(buf[:nr])
			}
			if rerr == io.EOF {
				break
			}
			if rerr != nil {
				w.fail(rerr)
				break
			}
			if w.err != nil {
				break
			}
		}
	}
	// Tombstones, delta-coded over the ascending id list.
	if w.err == nil {
		w.scratch.b = w.scratch.b[:0]
		w.scratch.uvarint(uint64(w.nDead))
		w.emit(w.scratch.b)
		w.emit(w.dead.b)
	}
	if w.err == nil {
		if err := w.bw.Flush(); err != nil {
			w.fail(err)
		}
	}
	if w.err == nil {
		hdr := make([]byte, headerSize)
		encodeHeader(hdr, Header{
			Version:  Version,
			Kind:     KindDocs,
			Shards:   uint32(w.shards),
			DocCount: uint64(w.n),
			SnapID:   w.crc,
		}, w.bodyLen, w.crc)
		if _, err := w.f.WriteAt(hdr, 0); err != nil {
			w.fail(err)
		}
	}
	if w.err != nil {
		return 0, w.abort()
	}
	w.done = true
	if err := w.f.Close(); err != nil {
		w.removeTemps()
		return 0, err
	}
	w.annF.Close()
	os.Remove(w.annTmp)
	if err := os.Rename(w.tmp, w.path); err != nil {
		os.Remove(w.tmp)
		return 0, err
	}
	return w.crc, nil
}

// Abort discards the writer and its temp files. Safe to call at any
// point, including after a successful Close (then a no-op).
func (w *docsWriter) Abort() {
	if w.done {
		return
	}
	w.fail(errors.New("store: docs writer: aborted"))
	w.abort()
}

func (w *docsWriter) abort() error {
	w.done = true
	w.f.Close()
	w.annF.Close()
	w.removeTemps()
	return w.err
}

func (w *docsWriter) removeTemps() {
	os.Remove(w.tmp)
	os.Remove(w.annTmp)
}
