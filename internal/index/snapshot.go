package index

import (
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
// segments, the snapshot writer placing each term; a loader may import
// the segments in any order or concurrently. ImportDocs + ImportTerms reproduce TopK
// bit-for-bit because every quantity BM25 reads (doc count, lengths,
// total length, tf, df) is restored exactly.

// Posting is one posting-list entry, the type the index holds its
// lists in and the snapshot codec decodes into.
type Posting struct {
	Doc int32 // document id
	TF  int32 // term frequency (title terms pre-counted double)
}

// TermPostings is one term's full posting list, in insertion (doc-id)
// order.
type TermPostings struct {
	Term     string
	Postings []Posting
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
		out = append(out, TermPostings{Term: term, Postings: slices.Clone(plist)})
	}
	ix.mu.RUnlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Term < out[j].Term })
	return out
}

// ExportDocs returns copies of the document table and the
// per-document term lengths, both indexed by doc id.
func (ix *Index) ExportDocs() (docs []Doc, lens []int) {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	return slices.Clone(ix.docs), slices.Clone(ix.lens)
}

// ForEach calls fn for every document in ascending id order, with the
// document's host from the host column (url.Parse's Host, "" for
// none), under the table read lock — the copy-free way to walk the
// corpus. fn must not call back into the index.
func (ix *Index) ForEach(fn func(id int, d Doc, host string)) {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	for id, d := range ix.docs {
		fn(id, d, ix.hostNames[ix.hosts[id]])
	}
}

// ImportDocs installs a decoded document table into an empty index,
// with the host column and the corpus counters BM25 reads. It refuses
// a non-empty index: snapshots restore whole worlds, they do not merge
// into live ones. The index holds no deleted documents, so dead must be
// nil; the parameter stays until the one caller that passes it, the
// benchmark's traced load, goes.
//
// The URLs must be distinct. That is checked without the URL lookup,
// which a served index never reads: the URLs' 64-bit hashes are sorted,
// and only when two are equal does an exact pass over the URLs confirm
// the duplicate and name the pair. The lookup is built by the first
// AddPreparedBatch or Has. Everything but the install runs before the
// table lock is taken.
func (ix *Index) ImportDocs(docs []Doc, lens []int, dead []bool) error {
	if len(docs) != len(lens) {
		return fmt.Errorf("index: import: %d docs but %d lengths", len(docs), len(lens))
	}
	if dead != nil {
		return fmt.Errorf("index: import: the index holds no deleted documents, got %d flags", len(dead))
	}
	if err := distinctURLs(docs); err != nil {
		return err
	}
	hosts := make([]uint32, len(docs))
	hostIDs := map[string]uint32{}
	hostNames := []string{""}
	totalLen := 0
	for id, d := range docs {
		hosts[id] = internHost(hostIDs, &hostNames, d.URL)
		totalLen += lens[id]
	}

	ix.mu.Lock()
	defer ix.mu.Unlock()
	ix.version.Add(1)
	if len(ix.docs) != 0 {
		return fmt.Errorf("index: import into non-empty index (%d docs)", len(ix.docs))
	}
	ix.docs, ix.lens, ix.totalLen = docs, lens, totalLen
	ix.hosts, ix.hostIDs, ix.hostNames = hosts, hostIDs, hostNames
	ix.byURL = nil
	return nil
}

// distinctURLs reports the first duplicate URL in docs, if any.
func distinctURLs(docs []Doc) error {
	seed := maphash.MakeSeed()
	sums := make([]uint64, len(docs))
	for id, d := range docs {
		sums[id] = maphash.String(seed, d.URL)
	}
	slices.Sort(sums)
	if len(slices.Compact(sums)) == len(docs) {
		return nil
	}
	// Two equal hashes: a duplicate, or a collision. Only the exact
	// pass can tell, and it names the pair.
	seen := make(map[string]int, len(docs))
	for id, d := range docs {
		if prev, dup := seen[d.URL]; dup {
			return fmt.Errorf("index: import: duplicate URL %q (docs %d and %d)", d.URL, prev, id)
		}
		seen[d.URL] = id
	}
	return nil
}

// ImportTerms installs decoded posting lists as-is (stored order
// preserved); a term may be imported at most once per index. The index
// takes ownership of each Postings slice without copying it — a commit
// appends to lists in place — so the caller must not use them
// afterwards.
// Safe to call concurrently: a loader decodes segments in parallel.
func (ix *Index) ImportTerms(terms []TermPostings) error {
	ix.mu.Lock()
	defer ix.mu.Unlock()
	ix.version.Add(1)
	for _, tp := range terms {
		if _, dup := ix.postings[tp.Term]; dup {
			return fmt.Errorf("index: import: term %q imported twice", tp.Term)
		}
		ix.postings[tp.Term] = tp.Postings
	}
	return nil
}
