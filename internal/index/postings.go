package index

import (
	"encoding/binary"
	"math"
)

// PostingList is one term's postings in stored (ascending doc-id)
// order: a 4-byte doc id and a term frequency each. A tf takes one
// byte — every tf of a real corpus fits — unless some tf of the list
// exceeds 255: then every tf of that list takes four bytes,
// little-endian, widened once by the append that first needs it. So a
// posting costs 5 bytes, the header two slices, and the scan reads one
// byte per tf; a list is never held both ways.
type PostingList struct {
	docs []int32
	tfs  []byte // len(docs) bytes, or 4*len(docs) once wide
}

// NewPostingList returns the list whose posting i is docs[i] with tf
// tfs[i]: the two slices themselves, so a decoder may fill them after
// the call, until Set widens the list. tfs must be as long as docs. A
// decoder hands it three-index sub-slices of one array per field for
// a whole segment, so a segment's lists cost two allocations and a
// later Append copies a list rather than overwriting its neighbour.
func NewPostingList(docs []int32, tfs []byte) PostingList {
	return PostingList{docs: docs, tfs: tfs[:len(docs)]}
}

// Len returns the number of postings, the term's document frequency.
func (l PostingList) Len() int { return len(l.docs) }

// Doc returns posting i's doc id.
func (l PostingList) Doc(i int) int32 { return l.docs[i] }

// TF returns posting i's term frequency.
func (l PostingList) TF(i int) int32 {
	if !l.wide() {
		return int32(l.tfs[i])
	}
	return int32(binary.LittleEndian.Uint32(l.tfs[4*i:]))
}

// wide reports whether the list holds its tfs at four bytes.
func (l PostingList) wide() bool { return len(l.tfs) != len(l.docs) }

// Set makes posting i doc's, with term frequency tf. A tf outside
// [0, 255] widens a narrow list first.
func (l *PostingList) Set(i int, doc, tf int32) {
	l.docs[i] = doc
	if uint32(tf) > math.MaxUint8 || l.wide() {
		l.widen(cap(l.docs))
		binary.LittleEndian.PutUint32(l.tfs[4*i:], uint32(tf))
		return
	}
	l.tfs[i] = byte(tf)
}

// Append adds a posting after the last. A tf outside [0, 255] widens a
// narrow list first.
func (l *PostingList) Append(doc, tf int32) {
	if uint32(tf) > math.MaxUint8 || l.wide() {
		l.widen(cap(l.docs) + 1)
		l.docs = append(l.docs, doc)
		l.tfs = binary.LittleEndian.AppendUint32(l.tfs, uint32(tf))
		return
	}
	l.docs = append(l.docs, doc)
	l.tfs = append(l.tfs, byte(tf))
}

// widen re-lays a narrow list's tfs at four bytes each, with room for
// capacity of them; a wide list it leaves be.
func (l *PostingList) widen(capacity int) {
	if l.wide() {
		return
	}
	w := make([]byte, 4*len(l.docs), 4*capacity)
	for i, tf := range l.tfs {
		binary.LittleEndian.PutUint32(w[4*i:], uint32(tf))
	}
	l.tfs = w
}
