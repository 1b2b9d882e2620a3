package index

import (
	"fmt"
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

// ExportDocs returns copies of the document table, the per-document
// term lengths and the tombstone flags, all indexed by doc id. A dead
// entry is a deleted document whose postings have not been compacted
// away yet; persisting it keeps doc ids — and therefore TopK tie
// order — stable across a snapshot round trip of a mutated index.
func (ix *Index) ExportDocs() (docs []Doc, lens []int, dead []bool) {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	docs = make([]Doc, len(ix.docs))
	copy(docs, ix.docs)
	lens = make([]int, len(ix.lens))
	copy(lens, ix.lens)
	dead = make([]bool, len(ix.dead))
	copy(dead, ix.dead)
	return docs, lens, dead
}

// ForEachLive calls fn for every live document in ascending id order,
// with the document's host from the host column (url.Parse's Host, ""
// for none), under the table read lock — the copy-free way to walk the
// corpus. fn must not call back into the index.
func (ix *Index) ForEachLive(fn func(id int, d Doc, host string)) {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	for id, d := range ix.docs {
		if !ix.dead[id] {
			fn(id, d, ix.hostNames[ix.hosts[id]])
		}
	}
}

// ImportDocs installs a decoded document table into an empty index,
// rebuilding the URL lookup, the host column and the live-corpus
// counters BM25 reads.
// dead marks tombstoned rows (nil = none): they get no URL entry and
// are subtracted from the live totals, exactly the state Delete leaves
// behind. It refuses a non-empty index: snapshots restore whole worlds,
// they do not merge into live ones.
func (ix *Index) ImportDocs(docs []Doc, lens []int, dead []bool) error {
	if len(docs) != len(lens) {
		return fmt.Errorf("index: import: %d docs but %d lengths", len(docs), len(lens))
	}
	if dead == nil {
		dead = make([]bool, len(docs))
	}
	if len(dead) != len(docs) {
		return fmt.Errorf("index: import: %d docs but %d tombstone flags", len(docs), len(dead))
	}
	ix.mu.Lock()
	defer ix.mu.Unlock()
	ix.version.Add(1)
	if len(ix.docs) != 0 {
		return fmt.Errorf("index: import into non-empty index (%d docs)", len(ix.docs))
	}
	ix.docs = docs
	ix.lens = lens
	ix.dead = dead
	ix.hosts = make([]uint32, len(docs))
	for id, d := range docs {
		ix.hosts[id] = ix.hostIDLocked(d.URL)
		ix.totalLen += lens[id]
		if dead[id] {
			ix.numDead++
			ix.deadLen += lens[id]
			continue
		}
		if prev, dup := ix.byURL[d.URL]; dup {
			return fmt.Errorf("index: import: duplicate URL %q (docs %d and %d)", d.URL, prev, id)
		}
		ix.byURL[d.URL] = id
	}
	return nil
}

// ImportTerms installs decoded posting lists as-is (stored order
// preserved); a term may be imported at most once per index. The index
// takes ownership of each Postings slice without copying it — Compact
// rewrites lists in place — so the caller must not use them afterwards.
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
