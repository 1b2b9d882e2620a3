package store

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"hash/maphash"
	"os"

	"deepweb/internal/index"
)

// docsWriter is the docs-segment writer: it streams the segment to
// disk one row at a time, each in the segment's own encoding
// (index.AppendRow), so neither a bulk build nor a Save of a live
// index ever holds the document table in memory twice. The format is
// pinned by a digest test.
//
// Streaming a format whose header precedes a body of unknown length
// works by reserving the 44-byte header up front, accumulating the
// body CRC incrementally, and patching the real header in place at
// Close before the atomic rename. The temp name ends in .tmp, so a
// crashed writer's dropping falls to the existing CleanTmp sweep.
//
// Annotations are not in this segment: Writer builds them into the
// columns segment.
//
// A row added through AddChecked has its URL's hash kept, 8 bytes a
// document; Close refuses two such rows with one URL before the rename
// (index.HasEqual, then, only on equal hashes, index.ScanRows over the
// temp body, which names the pair or clears a collision).
//
// The writer expects exactly docCount Adds in doc-id order (id =
// arrival order, matching the index's sequential assignment). Not safe
// for concurrent use.
type docsWriter struct {
	path string
	tmp  string
	f    *os.File
	bw   *bufio.Writer

	shards   int
	expected int
	n        int // docs added so far = next doc id
	crc      uint32
	bodyLen  uint64
	seed     maphash.Seed
	urls     []uint64 // the hashes of the checked rows' URLs
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
		shards:   shards,
		expected: docCount,
		seed:     maphash.MakeSeed(),
	}
	var err error
	if w.f, err = os.Create(w.tmp); err != nil {
		return nil, err
	}
	w.bw = bufio.NewWriterSize(w.f, 1<<16)
	// Header placeholder — patched with real lengths and CRCs at Close.
	if _, err := w.bw.Write(make([]byte, headerSize)); err != nil {
		w.fail(err)
		return nil, w.abort()
	}
	w.emit(binary.AppendUvarint(nil, uint64(docCount)))
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

// Add appends the next document's row, in the docs segment's row
// encoding (index.AppendRow); the document's id is its arrival order.
// The writer reads row only during the call.
func (w *docsWriter) Add(row []byte) error {
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
	w.emit(row)
	w.n++
	return w.err
}

// AddChecked is Add, and has Close check the row's URL distinct from
// that of every other row AddChecked added.
func (w *docsWriter) AddChecked(row []byte) error {
	n, k := binary.Uvarint(row) // a row begins with its URL
	w.urls = append(w.urls, maphash.Bytes(w.seed, row[k:k+int(n)]))
	return w.Add(row)
}

// Close patches the real header and atomically renames the segment
// into place. The snapshot id is the CRC-32C of this body followed by
// columns, the body of the columns segment of the same save; it is
// stamped into this header and returned, to be stamped into the
// columns and postings segments written alongside.
func (w *docsWriter) Close(columns []byte) (snapID uint32, err error) {
	if w.done {
		return 0, errors.New("store: docs writer: already closed")
	}
	if w.err == nil && w.n != w.expected {
		w.fail(fmt.Errorf("store: docs writer: %d docs added, %d declared", w.n, w.expected))
	}
	if w.err == nil {
		if err := w.bw.Flush(); err != nil {
			w.fail(err)
		}
	}
	if w.err == nil && index.HasEqual(w.urls) {
		// The body, read back, names the two rows or clears a collision.
		raw, err := os.ReadFile(w.tmp)
		if err == nil {
			_, err = index.ScanRows(string(raw[headerSize:]), len(binary.AppendUvarint(nil, uint64(w.n))), w.n)
		}
		w.fail(err)
	}
	snapID = crc32.Update(w.crc, castagnoli, columns)
	if w.err == nil {
		hdr := make([]byte, headerSize)
		encodeHeader(hdr, Header{
			Version:  Version,
			Kind:     KindDocs,
			Shards:   uint32(w.shards),
			DocCount: uint64(w.n),
			SnapID:   snapID,
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
		os.Remove(w.tmp)
		return 0, err
	}
	if err := os.Rename(w.tmp, w.path); err != nil {
		os.Remove(w.tmp)
		return 0, err
	}
	return snapID, nil
}

// Abort discards the writer and its temp file. Safe to call at any
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
	os.Remove(w.tmp)
	return w.err
}
