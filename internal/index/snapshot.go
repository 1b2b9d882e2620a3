package index

import (
	"encoding/binary"
	"fmt"
	"hash/maphash"
	"math"
	"slices"
	"sort"
)

// Snapshot support. The index's internals — the posting map, the
// document table, the annotation store — stay private; this file is
// the narrow export/import surface the snapshot codec (internal/store)
// works through. A reader's export hands out the posting lists
// (ExportTerms), the rows (ForEachRow) and the annotation tables
// (ExportAnnotations) as it holds them, which a snapshot writer writes
// as they are; a builder's import rebuilds an index from decoded
// segments without re-running the text pipeline, which is what makes
// warm starts cheap. The annotation
// store's side of it, ExportAnnotations, AnnBuilder and
// InstallAnnotations, sits with the store in annotated.go.
//
// Postings are exported as one sorted list and written as NumShards
// segments, the snapshot writer placing each term. The codec decodes
// a segment into PostingLists over one doc-id array and one tf array,
// and a loader installs every segment at once, in any order, with one
// ImportTerms. The rows are read by ScanRows, one walk over the docs
// body, and installed by ImportRows. ImportRows + ImportTerms
// reproduce TopK bit-for-bit because every quantity BM25 reads (doc
// count, lengths, total length, tf, df) is restored exactly.

// TermPostings is one term's full posting list, in insertion (doc-id)
// order: the list type the index holds, which the snapshot codec
// decodes into and encodes from.
type TermPostings struct {
	Term     string
	Postings PostingList
}

// NumShards returns how many postings segments the index saves as.
func (ix *Index) NumShards() int { return ix.segments }

// ExportTerms returns every term with its posting list, terms sorted,
// postings in stored order. The lists share the index's arrays, which
// a builder only appends to past the reader's ends. Each slice is
// clipped to its length, so an append to an exported list copies it
// first.
func (ix *Index) ExportTerms() []TermPostings {
	out := make([]TermPostings, 0, len(ix.postings))
	for term, plist := range ix.postings {
		out = append(out, TermPostings{Term: term, Postings: PostingList{docs: slices.Clip(plist.docs), tfs: slices.Clip(plist.tfs)}})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Term < out[j].Term })
	return out
}

// ForEach calls fn for every document in ascending id order, with the
// document's host from the host column (url.Parse's Host, "" for
// none) — the copy-free way to walk the corpus.
func (ix *Index) ForEach(fn func(id int, d Doc, host string)) {
	for id := range ix.rows.Len() {
		fn(id, ix.rows.Doc(id), ix.hostNames[ix.hosts[id]])
	}
}

// ForEachRow calls fn with every document's row — AppendRow's
// encoding, the docs segment's — in ascending id order, and returns
// fn's first error, at which it stops. The rows are substrings of the
// table's chunks.
func (ix *Index) ForEachRow(fn func(row string) error) error {
	for _, ref := range ix.rows.refs {
		row := ix.rows.chunks[ref>>offBits][ref&offMask:]
		_, _, n := ParseRow(row)
		if err := fn(row[:n]); err != nil {
			return err
		}
	}
	return nil
}

// ImportDocs installs a decoded document table into an empty builder:
// it encodes the rows into one string, reads them back with ScanRows
// and installs them with ImportRows. The index holds no deleted
// documents, so dead must be nil; the parameter stays until the one
// caller that passes it, the benchmark's traced load, goes.
func (b *Builder) ImportDocs(docs []Doc, lens []int32, dead []bool) error {
	if len(docs) != len(lens) {
		return fmt.Errorf("index: import: %d docs but %d lengths", len(docs), len(lens))
	}
	if dead != nil {
		return fmt.Errorf("index: import: the index holds no deleted documents, got %d flags", len(dead))
	}
	size := 0
	for _, d := range docs {
		size += len(d.URL) + len(d.Title) + len(d.Text) + len(d.Source) + 5*binary.MaxVarintLen32
	}
	body := make([]byte, 0, size)
	for id, d := range docs {
		body = AppendRow(body, d, int(lens[id]))
	}
	t, err := ScanRows(string(body), 0, len(docs))
	if err != nil {
		return fmt.Errorf("index: import: %w", err)
	}
	return b.ImportRows(t)
}

// RowTable is a document table as ScanRows read it, for ImportRows to
// install: the rows, their BM25 lengths, their hosts and the corpus
// length BM25 reads.
type RowTable struct {
	rows      Rows // one chunk, the body: a reference is its offset
	lens      []int32
	hosts     []uint32
	hostIDs   map[string]uint32
	hostNames []string
	totalLen  int
}

// Len returns the number of documents.
func (t *RowTable) Len() int { return t.rows.Len() }

// Doc decodes document id's row; its fields are substrings of the
// body.
func (t *RowTable) Doc(id int) Doc { return t.rows.Doc(id) }

// Lens returns the documents' BM25 lengths, indexed by doc id.
func (t *RowTable) Lens() []int32 { return t.lens }

// ScanRows reads a document table from body, whose n rows (AppendRow's
// encoding) run back to back from offset start to its end, in one
// pass: per row it checks that the row parses and that its BM25
// length fits an int32, and records where the row starts, its length,
// its host's id (hostRun, in first-seen order, as commits assign
// them) and its URL's 64-bit hash; then that no bytes follow the last
// row and that no two URLs are equal. The URLs are checked without a
// URL lookup, which a served index never holds: HasEqual looks for
// two equal hashes, and only when it finds them does an exact pass
// over the URLs confirm the duplicate and name the pair. It allocates
// the tables, the host dictionary and the hashes, which are dropped
// on return, nothing per row. The body is the table's one chunk, so
// everything read from it keeps the whole body reachable.
func ScanRows(body string, start, n int) (*RowTable, error) {
	if uint64(len(body)) > offMask {
		return nil, fmt.Errorf("%d-byte table past the %d bytes a row reference holds", len(body), offMask)
	}
	// An empty row takes five bytes: four empty fields and a length.
	if start < 0 || start > len(body) || n < 0 || n > (len(body)-start)/5 {
		return nil, fmt.Errorf("%d rows from offset %d of a %d-byte table", n, start, len(body))
	}
	t := &RowTable{
		rows:  Rows{refs: make([]uint64, n), chunks: []string{body}},
		lens:  make([]int32, n),
		hosts: make([]uint32, n),
	}
	hr := hostRun{ids: map[string]uint32{}, names: []string{""}}
	seed := maphash.MakeSeed()
	sums := make([]uint64, n)
	off := start
	for id := range n {
		d, dl, size := ParseRow(body[off:])
		switch {
		case size == 0:
			return nil, fmt.Errorf("row %d: truncated or malformed", id)
		case dl > math.MaxInt32:
			return nil, fmt.Errorf("row %d: length %d past %d", id, dl, math.MaxInt32)
		}
		t.rows.refs[id], t.lens[id], t.hosts[id] = uint64(off), int32(dl), hr.intern(d.URL)
		sums[id] = maphash.String(seed, d.URL)
		t.totalLen += int(dl)
		off += size
	}
	if rest := len(body) - off; rest != 0 {
		return nil, fmt.Errorf("%d undecoded bytes after the last of %d rows", rest, n)
	}
	if HasEqual(sums) {
		// Two equal hashes: a duplicate, or a collision. Only the
		// exact pass can tell, and it names the pair.
		seen := map[string]int{}
		for id := range n {
			url := t.Doc(id).URL
			if prev, dup := seen[url]; dup {
				return nil, fmt.Errorf("duplicate URL %q (docs %d and %d)", url, prev, id)
			}
			seen[url] = id
		}
	}
	t.hostIDs, t.hostNames = hr.ids, hr.names
	return t, nil
}

// HasEqual reports whether two of hs are equal, reordering hs. It
// partitions hs in place by the top byte, then sorts each bucket by
// its seven low bytes, least significant first, through one scratch
// buffer the size of the largest bucket, and compares neighbours:
// linear time, and no second array as long as hs.
func HasEqual(hs []uint64) bool {
	var count, next [256]int
	for _, h := range hs {
		count[h>>56]++
	}
	largest, at := 0, 0
	for b, c := range count {
		next[b] = at
		at += c
		largest = max(largest, c)
	}
	// Swap each hash into its bucket's next free place until the one
	// in hand belongs where the walk stands.
	end := 0
	for b, c := range count {
		end += c
		for i := next[b]; i < end; i = next[b] {
			h := hs[i]
			for d := int(h >> 56); d != b; d = int(h >> 56) {
				hs[next[d]], h = h, hs[next[d]]
				next[d]++
			}
			hs[i] = h
			next[b]++
		}
	}
	scratch := make([]uint64, largest)
	at = 0
	for _, c := range count {
		if radixHasEqual(hs[at:at+c], scratch[:c]) {
			return true
		}
		at += c
	}
	return false
}

// radixHasEqual reports whether two of hs, which share their top
// byte, are equal: an LSD radix sort on the seven low bytes, back and
// forth between hs and scratch (as long as hs), skipping a byte every
// hash shares, then a comparison of neighbours.
func radixHasEqual(hs, scratch []uint64) bool {
	if len(hs) < 2 {
		return false
	}
	var counts [7][256]uint32
	for _, h := range hs {
		counts[0][byte(h)]++
		counts[1][byte(h>>8)]++
		counts[2][byte(h>>16)]++
		counts[3][byte(h>>24)]++
		counts[4][byte(h>>32)]++
		counts[5][byte(h>>40)]++
		counts[6][byte(h>>48)]++
	}
	src, dst := hs, scratch
	for d := range counts {
		c, shift := &counts[d], 8*d
		if int(c[byte(src[0]>>shift)]) == len(src) {
			continue
		}
		sum := uint32(0)
		for k, v := range c {
			c[k], sum = sum, sum+v
		}
		for _, h := range src {
			k := byte(h >> shift)
			dst[c[k]] = h
			c[k]++
		}
		src, dst = dst, src
	}
	for i := 1; i < len(src); i++ {
		if src[i] == src[i-1] {
			return true
		}
	}
	return false
}

// ImportRows installs a document table ScanRows read into an empty
// builder, with the host column and the corpus counters BM25 reads; the
// table's one chunk is the body it was read from. The builder takes
// ownership of the table, which the caller must not use again. It
// refuses a non-empty builder: snapshots restore whole worlds, they do
// not merge into live ones. The URL lookup is built by the first
// AddPreparedBatch or Has.
func (b *Builder) ImportRows(t *RowTable) error {
	b.mu.Lock()
	defer b.mu.Unlock()
	ix := &b.ix
	if len(ix.lens) != 0 {
		return fmt.Errorf("index: import into non-empty index (%d docs)", len(ix.lens))
	}
	ix.rows, ix.lens, ix.totalLen = t.rows, t.lens, t.totalLen
	ix.hosts, ix.hostIDs, ix.hostNames = t.hosts, t.hostIDs, t.hostNames
	b.byURL = nil
	return nil
}

// ImportTerms installs decoded posting lists as-is (stored order
// preserved), every segment's in one locked section; a term may be
// imported at most once per index. Into an empty index the term map is
// made once, sized to every segment's terms together, and the lists'
// headers go into one array. The builder takes ownership of each list
// without copying its postings — a commit appends to lists, copying a
// decoded one first — so the caller must not use them afterwards. Safe
// to call concurrently.
func (b *Builder) ImportTerms(segs ...[]TermPostings) error {
	n := 0
	for _, terms := range segs {
		n += len(terms)
	}
	lists := make([]PostingList, 0, n)
	b.mu.Lock()
	defer b.mu.Unlock()
	b.thaw()
	ix := &b.ix
	if len(ix.postings) == 0 {
		ix.postings = make(map[string]*PostingList, n)
	}
	for _, terms := range segs {
		for _, tp := range terms {
			if _, dup := ix.postings[tp.Term]; dup {
				return fmt.Errorf("index: import: term %q imported twice", tp.Term)
			}
			lists = append(lists, tp.Postings)
			ix.postings[tp.Term] = &lists[len(lists)-1]
		}
	}
	return nil
}
