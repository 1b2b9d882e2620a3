package index

import (
	"encoding/binary"
	"fmt"
	"hash/maphash"
	"slices"
	"sort"
)

// Snapshot support. The index's internals — the posting map, the
// document table, the annotation store — stay private; this file is
// the narrow export/import surface the snapshot codec (internal/store)
// works through. Export hands out copies or short-lived views; import
// rebuilds an index from decoded segments without re-running the text
// pipeline, which is what makes warm starts cheap. The annotation
// store's side of it, AnnBuilder and InstallAnnotations, sits with the
// store in annotated.go.
//
// Postings are exported as one sorted list and written as NumShards
// segments, the snapshot writer placing each term. The codec decodes
// a segment into PostingLists over one doc-id array and one tf array,
// and a loader installs every segment at once, in any order, with one
// ImportTerms. ImportRows + ImportTerms reproduce TopK bit-for-bit
// because every quantity BM25 reads (doc count, lengths, total length,
// tf, df) is restored exactly.

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
// postings in stored order. The slices are fresh copies: the caller may
// encode them after the call returns, concurrently with writers.
func (ix *Index) ExportTerms() []TermPostings {
	ix.mu.RLock()
	out := make([]TermPostings, 0, len(ix.postings))
	for term, plist := range ix.postings {
		out = append(out, TermPostings{Term: term, Postings: plist.Clone()})
	}
	ix.mu.RUnlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Term < out[j].Term })
	return out
}

// ExportDocs returns the document table decoded, and the
// per-document term lengths, both indexed by doc id. The slices are
// fresh; the fields are substrings of the table's rows.
func (ix *Index) ExportDocs() (docs []Doc, lens []int32) {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	docs = make([]Doc, ix.rows.Len())
	for id := range docs {
		docs[id] = ix.rows.Doc(id)
	}
	return docs, slices.Clone(ix.lens)
}

// ForEach calls fn for every document in ascending id order, with the
// document's host from the host column (url.Parse's Host, "" for
// none), under the table read lock — the copy-free way to walk the
// corpus. fn must not call back into the index.
func (ix *Index) ForEach(fn func(id int, d Doc, host string)) {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	for id := range ix.rows.Len() {
		fn(id, ix.rows.Doc(id), ix.hostNames[ix.hosts[id]])
	}
}

// ImportDocs installs a decoded document table into an empty index,
// as ImportRows does, once it has encoded the rows into one string.
// The index holds no deleted documents, so dead must be nil; the
// parameter stays until the one caller that passes it, the benchmark's
// traced load, goes.
func (ix *Index) ImportDocs(docs []Doc, lens []int32, dead []bool) error {
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
	offs := make([]uint64, len(docs))
	for id, d := range docs {
		offs[id] = uint64(len(body))
		body = AppendRow(body, d, int(lens[id]))
	}
	return ix.ImportRows(string(body), offs, lens)
}

// ImportRows installs a document table into an empty index, with the
// host column and the corpus counters BM25 reads: body holds the rows,
// offs[id] is where document id's row starts in it, and lens[id] its
// BM25 length. The index takes ownership of offs and lens, and the
// table's one chunk is body itself. It refuses a non-empty index:
// snapshots restore whole worlds, they do not merge into live ones.
//
// Each offset must start a whole row, and the URLs must be distinct.
// The second is checked without the URL lookup, which a served index
// never reads: the URLs' 64-bit hashes are sorted, and only when two
// are equal does an exact pass over the URLs confirm the duplicate and
// name the pair. The lookup is built by the first AddPreparedBatch or
// Has. Everything but the install runs before the table lock is taken.
func (ix *Index) ImportRows(body string, offs []uint64, lens []int32) error {
	if len(offs) != len(lens) {
		return fmt.Errorf("index: import: %d rows but %d lengths", len(offs), len(lens))
	}
	if uint64(len(body)) > offMask {
		return fmt.Errorf("index: import: %d-byte table past the %d bytes a row reference holds", len(body), offMask)
	}
	rows := Rows{refs: offs, chunks: []string{body}} // chunk 0: a reference is its offset
	seed := maphash.MakeSeed()
	sums := make([]uint64, len(offs))
	hosts := make([]uint32, len(offs))
	hostIDs := map[string]uint32{}
	hostNames := []string{""}
	totalLen := 0
	for id, off := range offs {
		if off > uint64(len(body)) {
			return fmt.Errorf("index: import: row %d at offset %d of %d bytes", id, off, len(body))
		}
		d, _, n := ParseRow(body[off:])
		if n == 0 {
			return fmt.Errorf("index: import: row %d at offset %d does not parse", id, off)
		}
		sums[id] = maphash.String(seed, d.URL)
		hosts[id] = internHost(hostIDs, &hostNames, d.URL)
		totalLen += int(lens[id])
	}
	if err := distinctURLs(&rows, sums); err != nil {
		return err
	}

	ix.mu.Lock()
	defer ix.mu.Unlock()
	ix.version.Add(1)
	if len(ix.lens) != 0 {
		return fmt.Errorf("index: import into non-empty index (%d docs)", len(ix.lens))
	}
	ix.rows, ix.lens, ix.totalLen = rows, lens, totalLen
	ix.hosts, ix.hostIDs, ix.hostNames = hosts, hostIDs, hostNames
	ix.byURL = nil
	return nil
}

// distinctURLs reports the first duplicate URL in rows, given each
// row's URL hash in sums (which it sorts).
func distinctURLs(rows *Rows, sums []uint64) error {
	slices.Sort(sums)
	if len(slices.Compact(sums)) == rows.Len() {
		return nil
	}
	// Two equal hashes: a duplicate, or a collision. Only the exact
	// pass can tell, and it names the pair.
	seen := make(map[string]int, rows.Len())
	for id := range rows.Len() {
		url := rows.Doc(id).URL
		if prev, dup := seen[url]; dup {
			return fmt.Errorf("index: import: duplicate URL %q (docs %d and %d)", url, prev, id)
		}
		seen[url] = id
	}
	return nil
}

// ImportTerms installs decoded posting lists as-is (stored order
// preserved), every segment's in one write-locked section; a term may
// be imported at most once per index. Into an empty index the term map
// is made once, sized to every segment's terms together, and the
// lists' headers go into one array. The index takes ownership of each
// list without copying its postings — a commit appends to lists,
// copying a decoded one first — so the caller must not use them
// afterwards. Safe to call concurrently.
func (ix *Index) ImportTerms(segs ...[]TermPostings) error {
	n := 0
	for _, terms := range segs {
		n += len(terms)
	}
	lists := make([]PostingList, 0, n)
	ix.mu.Lock()
	defer ix.mu.Unlock()
	ix.version.Add(1)
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
