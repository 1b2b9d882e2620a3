package index

import (
	"encoding/binary"
	"fmt"
)

// The document table. A document is held as its row — URL, Title,
// Text and Source, each a uvarint length and its bytes, then its BM25
// length as a uvarint: the docs segment's row encoding — inside an
// immutable string, a chunk. Per document the table keeps one 8-byte
// reference, the chunk's number and the row's offset in it, so the
// table holds no pointer per document: a loaded index has one chunk,
// the docs body the snapshot reader kept, and each commit adds one
// chunk holding its batch's rows. A field read from a row is a
// substring of its chunk, so decoding allocates nothing, and whatever
// keeps one keeps the whole chunk reachable.

// offBits is how many low bits of a row reference hold the offset;
// the chunk number takes the rest.
const (
	offBits = 40
	offMask = 1<<offBits - 1
)

// AppendRow appends document d's row, with BM25 length dl, to b.
func AppendRow(b []byte, d Doc, dl int) []byte {
	for _, f := range [...]string{d.URL, d.Title, d.Text, d.Source} {
		b = binary.AppendUvarint(b, uint64(len(f)))
		b = append(b, f...)
	}
	return binary.AppendUvarint(b, uint64(dl))
}

// ParseRow reads the row at the start of s: the document, its fields
// substrings of s, its BM25 length, and the row's size in bytes. n is
// 0 when s does not begin with a whole row.
func ParseRow(s string) (d Doc, dl uint64, n int) {
	var f [4]string
	for i := range f {
		l, w := Uvarint(s[n:])
		if w == 0 || l > uint64(len(s)-n-w) {
			return Doc{}, 0, 0
		}
		n += w
		f[i] = s[n : n+int(l)]
		n += int(l)
	}
	dl, w := Uvarint(s[n:])
	if w == 0 {
		return Doc{}, 0, 0
	}
	return Doc{URL: f[0], Title: f[1], Text: f[2], Source: f[3]}, dl, n + w
}

// Uvarint is binary.Uvarint over a string, save that n is 0 for an
// overlong varint as for a short one. The snapshot codec reads its
// varints with it too.
func Uvarint(s string) (v uint64, n int) {
	for i := range min(len(s), binary.MaxVarintLen64) {
		b := s[i]
		v |= uint64(b&0x7f) << (7 * i)
		if b < 0x80 {
			if i == binary.MaxVarintLen64-1 && b > 1 {
				return 0, 0
			}
			return v, i + 1
		}
	}
	return 0, 0
}

// Rows is a read-only view of the document table. The one an index
// hands out (RowView) is valid for the scan that took it.
type Rows struct {
	refs   []uint64 // doc id -> chunk<<offBits | offset
	chunks []string
}

// Len returns the number of documents.
func (r *Rows) Len() int { return len(r.refs) }

// Doc decodes document id's row.
func (r *Rows) Doc(id int) Doc {
	ref := r.refs[id]
	d, _, _ := ParseRow(r.chunks[ref>>offBits][ref&offMask:])
	return d
}

// addChunk appends a chunk and returns its number in reference
// position: a row at offset off of it is referenced as ref|off. Past
// 2^24 chunks, or for a chunk past 1 TiB, a reference cannot hold the
// row, and it panics.
func (r *Rows) addChunk(chunk string) (ref uint64) {
	c := uint64(len(r.chunks))
	if c >= 1<<(64-offBits) || uint64(len(chunk)) > offMask {
		panic(fmt.Sprintf("index: row chunk %d of %d bytes: a reference holds %d chunks of up to %d bytes", c, len(chunk), 1<<(64-offBits), offMask))
	}
	r.chunks = append(r.chunks, chunk)
	return c << offBits
}

// RowView returns a view of the document table. It takes no lock:
// call it only from inside the Match of a Filter handed to TopK or
// AnnotatedTopK, under the read lock the scan holds throughout, so the
// view covers every candidate that scan hands over.
func (ix *Index) RowView() Rows { return ix.rows }
