package index

import "sort"

// Compaction. Delete leaves tombstones: dead rows in the document
// table and dead entries in posting lists that every query pays to
// skip. Compact rewrites the index to hold only live documents — and,
// deliberately, does more than garbage-collect: it renumbers the live
// documents in URL order (URLs are unique, so the order is total).
//
// Renumbering makes compaction a normal form: two indexes holding the
// same live corpus — however they got there, build-once or
// build-delete-rebuild in any interleaving — compact to states whose
// Search output is bit-identical, ids and tie order included. That is
// the property the freshness pipeline is tested against (refresh a
// churned world incrementally, surface the same world from scratch,
// compact both, compare). The cost is that doc ids are not stable
// across a Compact; callers holding ids across it (there are none in
// this codebase — ids live inside one query or one snapshot
// generation) must re-resolve by URL.

// Compact rewrites the document table and every posting list, dropping
// tombstones and renumbering live documents in URL order. It returns
// the number of documents reclaimed. It runs in one write-locked
// section, so concurrent queries and commits see the old state or the
// new one in full; but an id obtained before it — from Add, for a later
// Annotate or Delete — names another document after it.
func (ix *Index) Compact() int {
	ix.mu.Lock()
	defer ix.mu.Unlock()
	ix.version.Add(1)

	reclaimed := ix.numDead
	// Live ids in URL order become the new identity space.
	order := make([]int32, 0, len(ix.docs)-ix.numDead)
	for id := range ix.docs {
		if !ix.dead[id] {
			order = append(order, int32(id))
		}
	}
	sort.Slice(order, func(i, j int) bool {
		return ix.docs[order[i]].URL < ix.docs[order[j]].URL
	})
	newID := make([]int32, len(ix.docs))
	for i := range newID {
		newID[i] = -1
	}
	for to, from := range order {
		newID[from] = int32(to)
	}

	// Rebuild the document table in the new order.
	docs := make([]Doc, len(order))
	lens := make([]int, len(order))
	hosts := make([]uint32, len(order))
	byURL := make(map[string]int, len(order))
	totalLen := 0
	for to, from := range order {
		docs[to] = ix.docs[from]
		lens[to] = ix.lens[from]
		hosts[to] = ix.hosts[from]
		byURL[docs[to].URL] = to
		totalLen += lens[to]
	}
	ix.docs, ix.lens, ix.hosts, ix.byURL, ix.totalLen = docs, lens, hosts, byURL, totalLen
	ix.dead = make([]bool, len(docs))
	ix.numDead, ix.deadLen = 0, 0

	// Rewrite postings: drop dead entries, remap survivors, restore
	// ascending-id order under the new numbering.
	for term, plist := range ix.postings {
		kept := plist[:0]
		for _, p := range plist {
			if id := newID[p.Doc]; id >= 0 {
				kept = append(kept, Posting{Doc: id, TF: p.TF})
			}
		}
		if len(kept) == 0 {
			delete(ix.postings, term)
			continue
		}
		sort.Slice(kept, func(i, j int) bool { return kept[i].Doc < kept[j].Doc })
		ix.postings[term] = kept
	}

	ix.ann.rewrite(order)
	return reclaimed
}
